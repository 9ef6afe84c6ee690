package peaks

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// convolveSameDense is the dense direct convolution convolveSameInto
// replaced: every kernel tap that lands on the signal, added in
// ascending k. It is the reference the zero-skipping sum must match bit
// for bit.
func convolveSameDense(out, signal, kernel []float64) {
	n, m := len(signal), len(kernel)
	off := m / 2
	for i := 0; i < n; i++ {
		f := i + off
		var sum float64
		kLo := f - (n - 1)
		if kLo < 0 {
			kLo = 0
		}
		kHi := f
		if kHi > m-1 {
			kHi = m - 1
		}
		for k := kLo; k <= kHi; k++ {
			sum += kernel[k] * signal[f-k]
		}
		out[i] = sum
	}
}

// TestConvolveSameBitIdenticalToDense compares convolveSameInto with
// the dense reference by math.Float64bits on signals from all-zero to
// dense (including -0 bins, which the sparse loop skips), with odd and
// even kernels and kernels longer than the signal.
func TestConvolveSameBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	noisy := func() float64 { return rng.NormFloat64() * 37 }
	type gen struct {
		name string
		make func(int) []float64
	}
	signals := []gen{
		{"all-zero", func(n int) []float64 { return make([]float64, n) }},
		{"negative-zeros", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				if i%3 == 0 {
					s[i] = math.Copysign(0, -1)
				} else if i%7 == 0 {
					s[i] = noisy()
				}
			}
			return s
		}},
		{"single-spike", func(n int) []float64 {
			s := make([]float64, n)
			s[rng.Intn(n)] = noisy()
			return s
		}},
		{"clustered", func(n int) []float64 {
			s := make([]float64, n)
			for c := 0; c < 3; c++ {
				at, w := rng.Intn(n), 1+rng.Intn(1+n/10)
				for i := at; i < n && i < at+w; i++ {
					s[i] = noisy()
				}
			}
			return s
		}},
		{"dense", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = noisy()
			}
			return s
		}},
		{"random-sparse", func(n int) []float64 {
			s := make([]float64, n)
			p := rng.Float64()
			for i := range s {
				if rng.Float64() < p {
					s[i] = noisy()
				}
			}
			return s
		}},
	}
	kernels := []gen{
		{"ricker", func(m int) []float64 { return Ricker(m, 1+float64(m)/10) }},
		{"random", func(m int) []float64 {
			k := make([]float64, m)
			for i := range k {
				k[i] = rng.NormFloat64()
			}
			return k
		}},
	}
	sparse := 0
	for _, sg := range signals {
		for _, n := range []int{1, 2, 5, 16, 31, 200, 785} {
			for _, kg := range kernels {
				// Odd and even lengths, shorter and longer than the signal.
				for _, m := range []int{1, 2, 3, 4, 11, 30, 31, n, n + 1, 2*n + 5} {
					for trial := 0; trial < 3; trial++ {
						sig, ker := sg.make(n), kg.make(m)
						want := make([]float64, n)
						convolveSameDense(want, sig, ker)
						nz := sparseBins(nil, sig)
						if nz != nil {
							sparse++
						}
						got := make([]float64, n)
						convolveSameInto(got, sig, ker, nz)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s n=%d, %s m=%d, trial %d: out[%d] = %v (%#x), dense %v (%#x)",
									sg.name, n, kg.name, m, trial, i, got[i], math.Float64bits(got[i]),
									want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	if sparse == 0 {
		t.Fatal("no case took the sparse loop")
	}
}

// TestSparseBins pins the backend choice: the index list of non-zero
// bins when at most half the bins are non-zero, nil (the dense loop)
// otherwise.
func TestSparseBins(t *testing.T) {
	for _, c := range []struct {
		signal []float64
		want   []int // nil: dense
	}{
		{[]float64{}, []int{}},
		{[]float64{0, 0, 0}, []int{}},
		{[]float64{0, 2, 0, 3}, []int{1, 3}},
		{[]float64{math.Copysign(0, -1), 1}, []int{1}},
		{[]float64{1, 2, 0}, nil},
		{[]float64{1, 2, 3}, nil},
	} {
		got := sparseBins(nil, c.signal)
		if (got == nil) != (c.want == nil) || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("sparseBins(%v) = %#v, want %#v", c.signal, got, c.want)
		}
	}
}
