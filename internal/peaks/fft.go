// The two convolution backends of the CWT width ladder, and the rule
// that picks one per row (cwtMatrix).
//
// Direct (convolveSameInto, cwt.go) adds kernel·signal products in a
// fixed order, so its rows are the same bits on every run, and the
// paper-scale goldens use it. It skips the products on empty histogram
// bins: loop-latency histograms are mostly empty (8–38% of bins are
// non-zero in the serve-cold windows), and skipping a zero term never
// changes a bit of the sum. A ladder scans its signal for non-zero bins
// once; when at most half are non-zero, every direct row gathers
// through that index list, and denser signals take the dense loop.
//
// FFT (convolveSameFFT) costs O(N log N) per row instead of O(n·m),
// which pays off on the serve path's large degenerate histograms, where
// the direct ladder grows as bins² × widths. It is a pure-Go iterative
// radix-2 real-input FFT (the half-size complex-FFT packing) with
// per-(points,width) kernel spectra cached, so repeated FindPeaksCWT
// calls on same-shaped histograms skip the kernel transforms, and
// pooled scratch reused across the ladder. Its rows differ from the
// direct ones in the low-order bits.
//
// The cutover decides on the signal length and kernel support alone:
// signals under fftMinSignal bins always go direct, longer ones take the
// FFT for rows whose direct operation count exceeds fftRowCost. Moving
// a row across it would change low-order bits and could change plans,
// so the zero-skipping speed-up does not feed back into it. Both
// backends produce numpy mode="same" semantics.
package peaks

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// fftPlan carries the precomputed tables for one real transform size n
// (a power of two ≥ 4): the bit-reversal permutation and twiddles of the
// half-size complex FFT, plus the untangling twiddles of the real
// packing. Plans are immutable after construction and shared.
type fftPlan struct {
	n    int // real transform size
	half int // n/2, the complex FFT size
	rev  []int32
	// w[j] = e^{-2πi·j/half}, j < half/2 — stage twiddles of the
	// half-size FFT (a stage of length L indexes w[j·half/L]).
	w []complex128
	// unt[k] = e^{-2πi·k/n}, k ≤ half — untangle twiddles.
	unt []complex128
}

var fftPlans sync.Map // int (real size) -> *fftPlan

func planFor(n int) *fftPlan {
	if p, ok := fftPlans.Load(n); ok {
		return p.(*fftPlan)
	}
	half := n / 2
	p := &fftPlan{n: n, half: half}
	p.rev = make([]int32, half)
	shift := 64 - uint(bits.TrailingZeros(uint(half)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	p.w = make([]complex128, half/2)
	for j := range p.w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(half))
		p.w[j] = complex(c, s)
	}
	p.unt = make([]complex128, half+1)
	for k := range p.unt {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.unt[k] = complex(c, s)
	}
	actual, _ := fftPlans.LoadOrStore(n, p)
	return actual.(*fftPlan)
}

// nextPow2 returns the smallest power of two ≥ v (and ≥ 4).
func nextPow2(v int) int {
	n := 4
	for n < v {
		n <<= 1
	}
	return n
}

// fftInPlace runs the iterative radix-2 decimation-in-time FFT of size
// p.half over z (already in bit-reversed order is NOT assumed — the
// caller passes natural order and this permutes first).
func (p *fftPlan) fftInPlace(z []complex128) {
	for i, r := range p.rev {
		if i < int(r) {
			z[i], z[r] = z[r], z[i]
		}
	}
	half := p.half
	for l := 2; l <= half; l <<= 1 {
		step := half / l
		hl := l / 2
		for base := 0; base < half; base += l {
			tw := 0
			for j := base; j < base+hl; j++ {
				t := p.w[tw] * z[j+hl]
				z[j+hl] = z[j] - t
				z[j] = z[j] + t
				tw += step
			}
		}
	}
}

// ifftInPlace computes the unnormalized inverse FFT via the conjugation
// identity; the caller folds the 1/half factor into its own scaling.
func (p *fftPlan) ifftInPlace(z []complex128) {
	for i := range z {
		z[i] = complex(real(z[i]), -imag(z[i]))
	}
	p.fftInPlace(z)
	for i := range z {
		z[i] = complex(real(z[i]), -imag(z[i]))
	}
}

// rfft transforms the real input x (length ≤ p.n; virtually zero-padded
// to p.n) into its spectrum X[0..half] (half+1 bins), using z (length
// half) as work space. spec must have length half+1.
func (p *fftPlan) rfft(x []float64, z, spec []complex128) {
	half := p.half
	// Pack pairs of reals into the half-size complex input.
	np := len(x) / 2
	for k := 0; k < np; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	if 2*np < len(x) { // odd tail element
		z[np] = complex(x[2*np], 0)
		np++
	}
	for k := np; k < half; k++ {
		z[k] = 0
	}
	p.fftInPlace(z)
	// Untangle: X[k] = Fe[k] + e^{-2πik/n}·Fo[k] with
	// Fe = (Z[k]+conj(Z[half-k]))/2, Fo = -i(Z[k]-conj(Z[half-k]))/2.
	spec[0] = complex(real(z[0])+imag(z[0]), 0)
	spec[half] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k <= half/2; k++ {
		zk := z[k]
		zc := z[half-k]
		fe := complex((real(zk)+real(zc))/2, (imag(zk)-imag(zc))/2)
		fo := complex((imag(zk)+imag(zc))/2, (real(zc)-real(zk))/2)
		spec[k] = fe + p.unt[k]*fo
		if k != half-k {
			// Mirror bin from conjugate symmetry of the even/odd parts:
			// Fe[half-k] = conj(Fe[k]), Fo[half-k] = conj(Fo[k]).
			feM := complex(real(fe), -imag(fe))
			foM := complex(real(fo), -imag(fo))
			spec[half-k] = feM + p.unt[half-k]*foM
		}
	}
}

// irfft transforms spec (half+1 bins) back into p.n real samples written
// to out (length ≥ p.n is not required: only the first len(out) samples
// are stored). z is work space of length half. spec is not modified.
func (p *fftPlan) irfft(spec []complex128, z []complex128, out []float64) {
	half := p.half
	// Re-tangle: Z[k] = Fe[k] + i·e^{+2πik/n}·Fo[k] with
	// Fe = (X[k]+conj(X[half-k]))/2, Fo = (X[k]-conj(X[half-k]))/2·e^{+2πik/n}.
	for k := 0; k <= half/2; k++ {
		xk := spec[k]
		xc := spec[half-k]
		fe := complex((real(xk)+real(xc))/2, (imag(xk)-imag(xc))/2)
		fo := complex((real(xk)-real(xc))/2, (imag(xk)+imag(xc))/2)
		// e^{+2πik/n} = conj(unt[k]); multiply fo then by i.
		u := p.unt[k]
		fr := real(fo)*real(u) + imag(fo)*imag(u)
		fi := imag(fo)*real(u) - real(fo)*imag(u)
		z[k] = complex(real(fe)-fi, imag(fe)+fr)
		if k != 0 && k != half-k {
			// Mirror entry from conjugate symmetry: Fe[half-k] = conj(Fe[k])
			// and Fo[half-k] = conj(Fo[k]) = conj(fo)·u (fo holds u·Fo[k]).
			feM := complex(real(fe), -imag(fe))
			foM := complex(real(fo), -imag(fo))
			frM := real(foM)*real(u) - imag(foM)*imag(u)
			fiM := real(foM)*imag(u) + imag(foM)*real(u)
			z[half-k] = complex(real(feM)-fiM, imag(feM)+frM)
		}
	}
	p.ifftInPlace(z)
	scale := 1 / float64(half)
	for i := 0; i < len(out); i++ {
		c := z[i/2]
		if i&1 == 0 {
			out[i] = real(c) * scale
		} else {
			out[i] = imag(c) * scale
		}
	}
}

// ---------------------------------------------------------------------
// Wavelet and kernel-spectrum caches.

type wavKey struct{ points, width int }

type specKey struct {
	points, width int
	n             int // FFT real size the spectrum was computed at
}

// CacheStats are the package's memoization counters, surfaced through
// the analysis obs span (ricker_cache_hits etc.).
type cacheStats struct {
	waveletHits, waveletMisses   atomic.Int64
	spectrumHits, spectrumMisses atomic.Int64
	spectrumEvictions            atomic.Int64
}

var cwtCacheStats cacheStats

// spectrumCacheBudget bounds the kernel-spectrum cache in float64-
// equivalents (complex128 counts as two). 1<<21 ≈ 16 MiB. When a store
// would exceed it, the cache is cleared wholesale: the steady-state
// serve path re-warms one ladder's worth immediately, and wholesale
// clearing keeps the policy deterministic.
const spectrumCacheBudget = 1 << 21

var waveletCache struct {
	sync.RWMutex
	m map[wavKey][]float64
}

var spectrumCache struct {
	sync.RWMutex
	m    map[specKey][]complex128
	cost int
}

// rickerCached returns the memoized Ricker wavelet for integer widths —
// the per-(points,width) construction FindPeaksCWT otherwise re-derives
// on every call of the width ladder — and whether it was a cache hit.
// The returned slice is shared and must not be mutated.
func rickerCached(points, width int) ([]float64, bool) {
	k := wavKey{points, width}
	waveletCache.RLock()
	wav, ok := waveletCache.m[k]
	waveletCache.RUnlock()
	if ok {
		cwtCacheStats.waveletHits.Add(1)
		return wav, true
	}
	cwtCacheStats.waveletMisses.Add(1)
	wav = Ricker(points, float64(width))
	waveletCache.Lock()
	if waveletCache.m == nil {
		waveletCache.m = make(map[wavKey][]float64)
	}
	// A racing fill computed the identical slice; either wins.
	waveletCache.m[k] = wav
	waveletCache.Unlock()
	return wav, false
}

// kernelSpectrum returns the cached rfft of the (points,width) Ricker
// wavelet at FFT size p.n, computing and caching it on miss, and whether
// it was a cache hit. z is caller scratch (length p.half). The returned
// slice is shared and must not be mutated.
func kernelSpectrum(p *fftPlan, points, width int, z []complex128) ([]complex128, bool) {
	k := specKey{points: points, width: width, n: p.n}
	spectrumCache.RLock()
	spec, ok := spectrumCache.m[k]
	spectrumCache.RUnlock()
	if ok {
		cwtCacheStats.spectrumHits.Add(1)
		return spec, true
	}
	cwtCacheStats.spectrumMisses.Add(1)
	wav, _ := rickerCached(points, width)
	spec = make([]complex128, p.half+1)
	p.rfft(wav, z, spec)
	spectrumCache.Lock()
	if spectrumCache.m == nil {
		spectrumCache.m = make(map[specKey][]complex128)
	}
	cost := 2 * (p.half + 1)
	if spectrumCache.cost+cost > spectrumCacheBudget {
		spectrumCache.m = make(map[specKey][]complex128)
		spectrumCache.cost = 0
		cwtCacheStats.spectrumEvictions.Add(1)
	}
	spectrumCache.m[k] = spec
	spectrumCache.cost += cost
	spectrumCache.Unlock()
	return spec, false
}

// ---------------------------------------------------------------------
// Ladder scratch.

// cwtScratch is the reusable state of one width-ladder computation: the
// FFT work buffers and the signal spectrum, valid for one (signal, FFT
// size) pairing at a time. Pooled across FindPeaksCWT calls.
type cwtScratch struct {
	plan    *fftPlan
	z       []complex128 // half-size FFT work
	spec    []complex128 // pointwise product buffer (half+1)
	sigSpec []complex128 // signal spectrum (half+1)
	tmp     []float64    // irfft output window (off+n samples)
	rows    []float64    // flat CWT matrix backing (len(widths)·n)
	views   [][]float64  // per-width row views into rows
	row0    []float64    // |cwt[0]| noise row
	nz      []int        // the signal's sparseBins (direct rows)
	noise   []float64    // percentile window copy
}

var cwtScratchPool = sync.Pool{New: func() any { return new(cwtScratch) }}

// prepare sizes the scratch for FFT size n and computes the signal
// spectrum once for the whole ladder.
func (st *cwtScratch) prepare(p *fftPlan, signal []float64) {
	st.plan = p
	if cap(st.z) < p.half {
		st.z = make([]complex128, p.half)
	}
	st.z = st.z[:p.half]
	if cap(st.spec) < p.half+1 {
		st.spec = make([]complex128, p.half+1)
	}
	st.spec = st.spec[:p.half+1]
	if cap(st.sigSpec) < p.half+1 {
		st.sigSpec = make([]complex128, p.half+1)
	}
	st.sigSpec = st.sigSpec[:p.half+1]
	p.rfft(signal, st.z, st.sigSpec)
}

// convolveSameFFT computes numpy mode="same" convolution of the signal
// prepared in st with the (points,width) Ricker kernel, writing the n
// centre samples into out. The cyclic convolution is exact (no
// wraparound) because the plan size satisfies p.n ≥ n+m-1.
func (st *cwtScratch) convolveSameFFT(points, width, n int, out []float64, c *cwtCounters) {
	p := st.plan
	kspec, hit := kernelSpectrum(p, points, width, st.z)
	if c != nil {
		if hit {
			c.spectrumHits++
		} else {
			c.spectrumMisses++
		}
	}
	for i := range st.spec {
		st.spec[i] = st.sigSpec[i] * kspec[i]
	}
	// numpy "same" keeps full-convolution indices [m/2, m/2+n): inverse-
	// transform the first off+n samples and copy out the window.
	off := points / 2
	if cap(st.tmp) < off+n {
		st.tmp = make([]float64, off+n)
	}
	tmp := st.tmp[:off+n]
	p.irfft(st.spec, st.z, tmp)
	copy(out, tmp[off:])
}

// ---------------------------------------------------------------------
// Ladder construction and the direct/FFT cutover.

// convMode selects the convolution backend for a ladder. Auto picks per
// row by operation count; the forced modes exist for the bin-identity
// tests that assert the two backends detect identical peaks.
type convMode int

const (
	convModeAuto convMode = iota
	convModeDirect
	convModeFFT
)

// fftMinSignal is the size cutover: signals shorter than this always use
// direct convolution. The paper-scale goldens (hundreds of bins) stay on
// the exact direct path; the FFT pays off on the serve path's large
// degenerate histograms.
const fftMinSignal = 1024

// cwtCounters accumulates one ladder's cache and backend statistics so
// FindPeaksCWT can attribute them to its caller's obs span without
// cross-span bleed.
type cwtCounters struct {
	waveletHits, waveletMisses   int64
	spectrumHits, spectrumMisses int64
	fftRows, directRows          int64
}

// kernelPoints is the wavelet support CWT uses for a width: 10w+1,
// clipped to the signal length, floored at 3.
func kernelPoints(n, w int) int {
	points := 10*w + 1
	if points > n {
		points = n
	}
	if points < 3 {
		points = 3
	}
	return points
}

// fftRowCost approximates the per-row cost of the FFT path (pointwise
// product + inverse transform; the signal spectrum is amortized over the
// ladder) in direct-convolution multiply-add equivalents.
func fftRowCost(N int) int {
	return 6 * N * bits.Len(uint(N-1))
}

// cwtMatrix fills the scratch-backed CWT matrix: one row per width, each
// the signal convolved with that width's Ricker wavelet under numpy
// mode="same" semantics. Returned rows alias st and are valid until the
// scratch is reused.
func (st *cwtScratch) cwtMatrix(signal []float64, widths []int, mode convMode, c *cwtCounters) [][]float64 {
	n := len(signal)
	if cap(st.rows) < len(widths)*n {
		st.rows = make([]float64, len(widths)*n)
	}
	st.rows = st.rows[:len(widths)*n]
	if cap(st.views) < len(widths) {
		st.views = make([][]float64, len(widths))
	}
	st.views = st.views[:len(widths)]

	mMax := 0
	for _, w := range widths {
		if p := kernelPoints(n, w); p > mMax {
			mMax = p
		}
	}
	N := nextPow2(n + mMax - 1)
	prepared, scanned := false, false
	var nz []int
	for i, w := range widths {
		points := kernelPoints(n, w)
		row := st.rows[i*n : (i+1)*n : (i+1)*n]
		useFFT := mode == convModeFFT ||
			(mode == convModeAuto && n >= fftMinSignal && n*points > fftRowCost(N))
		if useFFT {
			if !prepared {
				// One plan and one signal transform serve the whole ladder.
				st.prepare(planFor(N), signal)
				prepared = true
			}
			st.convolveSameFFT(points, w, n, row, c)
			if c != nil {
				c.fftRows++
			}
		} else {
			if !scanned {
				// One scan for zero bins serves every direct row. A dense
				// signal gets nil; st.nz keeps its buffer for the next.
				if nz = sparseBins(st.nz, signal); nz != nil {
					st.nz = nz
				}
				scanned = true
			}
			wav, hit := rickerCached(points, w)
			convolveSameInto(row, signal, wav, nz)
			if c != nil {
				c.directRows++
				if hit {
					c.waveletHits++
				} else {
					c.waveletMisses++
				}
			}
		}
		st.views[i] = row
	}
	return st.views
}
