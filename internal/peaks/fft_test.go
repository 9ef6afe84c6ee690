package peaks

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference: X[k] = Σ x[j]·e^{-2πijk/n}.
func naiveDFT(x []float64, n int) []complex128 {
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j, v := range x {
			sum += complex(v, 0) * cmplx.Exp(complex(0, -2*math.Pi*float64(j)*float64(k)/float64(n)))
		}
		out[k] = sum
	}
	return out
}

func TestRFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{4, 8, 16, 64, 256, 1024} {
		for _, fill := range []int{n, n - 1, n / 2, 3} {
			x := make([]float64, fill)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			p := planFor(n)
			z := make([]complex128, p.half)
			spec := make([]complex128, p.half+1)
			p.rfft(x, z, spec)
			want := naiveDFT(x, n)
			scale := 0.0
			for _, w := range want {
				if a := cmplx.Abs(w); a > scale {
					scale = a
				}
			}
			if scale == 0 {
				scale = 1
			}
			for k := 0; k <= p.half; k++ {
				if d := cmplx.Abs(spec[k] - want[k]); d > 1e-9*scale {
					t.Fatalf("n=%d fill=%d: spec[%d] = %v, want %v (err %g)",
						n, fill, k, spec[k], want[k], d)
				}
			}
		}
	}
}

func TestIRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 8, 32, 128, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		p := planFor(n)
		z := make([]complex128, p.half)
		spec := make([]complex128, p.half+1)
		p.rfft(x, z, spec)
		got := make([]float64, n)
		p.irfft(spec, z, got)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d: irfft(rfft(x))[%d] = %g, want %g", n, i, got[i], x[i])
			}
		}
		// Partial output windows must agree with the full transform.
		short := make([]float64, n/2+1)
		p.irfft(spec, z, short)
		for i := range short {
			if math.Abs(short[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d: short irfft[%d] = %g, want %g", n, i, short[i], x[i])
			}
		}
	}
}

// TestConvolveSameFFTMatchesDirect: the FFT path must agree with the
// direct numpy mode="same" convolution to near machine precision for
// every (signal length, kernel length) parity combination, including
// kernels clipped to the signal length.
func TestConvolveSameFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 16, 30, 31, 400, 1023} {
		for _, w := range []int{1, 2, 3, 7, 20, 40} {
			points := 10*w + 1
			if points > n {
				points = n
			}
			if points < 3 {
				points = 3
			}
			sig := make([]float64, n)
			for i := range sig {
				sig[i] = rng.NormFloat64() * 50
			}
			wav, _ := rickerCached(points, w)
			want := convolveSame(sig, wav)

			p := planFor(nextPow2(n + points - 1))
			st := cwtScratchPool.Get().(*cwtScratch)
			st.prepare(p, sig)
			got := make([]float64, n)
			st.convolveSameFFT(points, w, n, got, nil)
			cwtScratchPool.Put(st)

			scale := 0.0
			for _, v := range want {
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			if scale == 0 {
				scale = 1
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*scale {
					t.Fatalf("n=%d w=%d: fft conv[%d] = %g, direct %g", n, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCWTRowAllocsPerRun locks the zero-alloc claim for the row
// convolution: with a warmed kernel-spectrum cache and pooled scratch,
// one FFT row costs no heap allocations at all.
func TestCWTRowAllocsPerRun(t *testing.T) {
	sig := make([]float64, 4096)
	for i := range sig {
		sig[i] = math.Sin(float64(i) / 7)
	}
	const width = 32
	points := kernelPoints(len(sig), width)
	p := planFor(nextPow2(len(sig) + points - 1))
	st := cwtScratchPool.Get().(*cwtScratch)
	defer cwtScratchPool.Put(st)
	st.prepare(p, sig)
	out := make([]float64, len(sig))
	st.convolveSameFFT(points, width, len(sig), out, nil) // warm caches + tmp
	if got := testing.AllocsPerRun(50, func() {
		st.convolveSameFFT(points, width, len(sig), out, nil)
	}); got > 0 {
		t.Errorf("warm FFT row: %.1f allocs/op, want 0", got)
	}

	// The direct row path with a memoized wavelet is equally clean, on
	// the dense loop and on the sparse one.
	wav, _ := rickerCached(points, width)
	sparse := make([]float64, len(sig))
	for i := 0; i < len(sig); i += 3 {
		sparse[i] = sig[i]
	}
	for _, s := range [][]float64{sig, sparse} {
		nz := sparseBins(nil, s)
		if got := testing.AllocsPerRun(50, func() {
			convolveSameInto(out, s, wav, nz)
		}); got > 0 {
			t.Errorf("direct row (sparse=%v): %.1f allocs/op, want 0", nz != nil, got)
		}
	}
}

// TestFindPeaksCWTFFTBinIdentical asserts the tentpole contract: across
// the scipy-style fixtures and a corpus of generated histograms spanning
// both sides of the FFT cutover, the FFT-backed detector returns
// bin-identical peak indices to the direct convolution path.
func TestFindPeaksCWTFFTBinIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type tc struct {
		name string
		sig  []float64
	}
	var cases []tc
	// The Figure 4 scipy-style fixture shape at several scales.
	for _, n := range []int{400, 1024, 4096, 16384} {
		sig := make([]float64, n)
		for _, cf := range []float64{0.1, 0.29, 0.5, 0.81} {
			c := cf * float64(n)
			sigma := float64(n) / 100
			for i := range sig {
				d := float64(i) - c
				sig[i] += 100 * math.Exp(-d*d/(2*sigma*sigma))
			}
		}
		for i := range sig {
			sig[i] += rng.Float64()
		}
		cases = append(cases, tc{fmt.Sprintf("fig4-%d", n), sig})
	}
	// Degenerate shapes: spikes, plateaus, heavy noise.
	for _, n := range []int{512, 2048, 8192} {
		spiky := make([]float64, n)
		for i := 0; i < 12; i++ {
			spiky[rng.Intn(n)] = float64(100 + rng.Intn(1000))
		}
		cases = append(cases, tc{fmt.Sprintf("spiky-%d", n), spiky})
		noisy := make([]float64, n)
		for i := range noisy {
			noisy[i] = rng.Float64() * 10
		}
		cases = append(cases, tc{fmt.Sprintf("noise-%d", n), noisy})
	}
	for _, c := range cases {
		widths := ladderWidths(len(c.sig))
		direct := findPeaksCWTMode(c.sig, widths, Options{}, convModeDirect)
		fft := findPeaksCWTMode(c.sig, widths, Options{}, convModeFFT)
		if len(direct) != len(fft) {
			t.Fatalf("%s: direct found %v, fft found %v", c.name, direct, fft)
		}
		for i := range direct {
			if direct[i] != fft[i] {
				t.Fatalf("%s: peak %d differs: direct %d, fft %d (direct %v, fft %v)",
					c.name, i, direct[i], fft[i], direct, fft)
			}
		}
	}
}
