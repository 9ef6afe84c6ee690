// Package peaks implements continuous-wavelet-transform peak detection —
// a pure-Go counterpart of scipy.signal.find_peaks_cwt, which the paper
// uses (§3.4) to locate the peaks of a loop's execution-time distribution.
// Each peak corresponds to the loop latency when the delinquent load is
// served by one level of the memory hierarchy; the gap between the lowest
// and highest peaks separates the instruction component from the memory
// component (Equation 1).
//
// The algorithm follows Du, Kibbe & Lin (Bioinformatics 2006): convolve
// the signal with Ricker ("Mexican hat") wavelets over a range of widths,
// link local maxima across scales into ridge lines, and keep ridges that
// are long and loud enough.
package peaks

import (
	"math"
	"sort"

	"aptget/internal/obs"
)

// Ricker returns the Ricker wavelet with the given width parameter a,
// sampled at `points` positions centred on zero — the same construction
// as scipy.signal.ricker.
func Ricker(points int, a float64) []float64 {
	out := make([]float64, points)
	amp := 2 / (math.Sqrt(3*a) * math.Pow(math.Pi, 0.25))
	for i := 0; i < points; i++ {
		x := float64(i) - float64(points-1)/2
		xsq := (x * x) / (a * a)
		out[i] = amp * (1 - xsq) * math.Exp(-xsq/2)
	}
	return out
}

// convolveSame convolves signal with kernel and returns the centre
// (len(signal)) samples — numpy.convolve(..., mode="same").
func convolveSame(signal, kernel []float64) []float64 {
	out := make([]float64, len(signal))
	convolveSameInto(out, signal, kernel, sparseBins(nil, signal))
	return out
}

// sparseBins returns the indices of signal's non-zero bins, ascending,
// in buf's storage — or nil when more than half the bins are non-zero.
// A term gathered through the index list costs more than a dense one
// (about 1.2x on an x86-64 host), so the list pays only when it skips
// enough terms. With at most half the bins listed it wins even at twice
// the per-term cost, so the choice never makes a row slower than the
// dense loop.
func sparseBins(buf []int, signal []float64) []int {
	count := 0
	for _, v := range signal {
		if v != 0 {
			count++
		}
	}
	if 2*count > len(signal) {
		return nil
	}
	nz := buf[:0]
	if nz == nil {
		nz = make([]int, 0, count) // non-nil even when empty
	}
	for j, v := range signal {
		if v != 0 {
			nz = append(nz, j)
		}
	}
	return nz
}

// convolveSameInto is convolveSame writing into caller-owned storage
// (len(out) == len(signal)). nz is sparseBins(…, signal): nil sums over
// every bin, otherwise only the listed non-zero bins are visited.
//
// Output i is the sum of kernel[k]·signal[f-k] over the kernel taps k
// that land on the signal, added in ascending k (descending signal
// index). The sparse loop skips the terms on zero bins and adds the
// others in that same order, so every output is bit-identical to the
// dense sum: the accumulator starts at +0, x + (±0) == x for every x,
// and a sum of non-zero terms that cancels is +0 under round-to-nearest,
// so a skipped ±0 term can never have changed it.
func convolveSameInto(out, signal, kernel []float64, nz []int) {
	n, m := len(signal), len(kernel)
	// full convolution index f = s + k; "same" keeps f in
	// [m/2, m/2 + n). numpy centres an even-length kernel on the
	// *right* of the two middle taps (off = m/2), which only differs
	// from the odd-kernel (m-1)/2 when CWT clips the wavelet to an even
	// len(signal); using (m-1)/2 there shifts every response — and so
	// every detected peak — one bin low.
	off := m / 2
	if nz == nil {
		for i := 0; i < n; i++ {
			f := i + off
			var sum float64
			kLo := max(f-(n-1), 0)
			kHi := min(f, m-1)
			for k := kLo; k <= kHi; k++ {
				sum += kernel[k] * signal[f-k]
			}
			out[i] = sum
		}
		return
	}
	// nz[first:last] are the non-zero bins in output i's signal window
	// [f-kHi, f-kLo]; both ends only move right as i grows.
	first, last := 0, 0
	for i := 0; i < n; i++ {
		f := i + off
		jLo := max(f-(m-1), 0)
		jHi := min(f, n-1)
		for last < len(nz) && nz[last] <= jHi {
			last++
		}
		for first < last && nz[first] < jLo {
			first++
		}
		win := nz[first:last]
		var sum float64
		for t := len(win) - 1; t >= 0; t-- {
			j := win[t]
			sum += kernel[f-j] * signal[j]
		}
		out[i] = sum
	}
}

// CWT computes the continuous wavelet transform matrix: one row per
// width, each row the signal convolved with a Ricker wavelet of that
// width. scipy convolves with the reversed wavelet; Ricker is symmetric
// so plain convolution is identical. Large signals take the FFT path
// (see fft.go); the returned rows are freshly allocated either way.
func CWT(signal []float64, widths []int) [][]float64 {
	st := cwtScratchPool.Get().(*cwtScratch)
	rows := st.cwtMatrix(signal, widths, convModeAuto, nil)
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, len(r))
		copy(out[i], r)
	}
	cwtScratchPool.Put(st)
	return out
}

// relativeMaxima returns the indices i where row[i] is strictly greater
// than every neighbour within `order` positions (scipy.signal.argrelmax
// with clipped boundaries).
func relativeMaxima(row []float64, order int) []int {
	if order < 1 {
		order = 1
	}
	var out []int
	for i := range row {
		isMax := row[i] > 0
		for d := 1; d <= order && isMax; d++ {
			if j := i - d; j >= 0 && row[j] >= row[i] {
				isMax = false
			}
			if j := i + d; j < len(row) && row[j] >= row[i] {
				isMax = false
			}
		}
		if isMax {
			out = append(out, i)
		}
	}
	return out
}

// ridgeLine is a chain of maxima linked across scales.
type ridgeLine struct {
	rows []int // width indices, descending
	cols []int // positions
	gap  int   // consecutive rows without a matching maximum
}

// identifyRidgeLines links maxima from the largest width down to the
// smallest, tolerating gapThresh missed rows, with per-row matching
// window maxDistances[row].
func identifyRidgeLines(cwt [][]float64, maxDistances []int, gapThresh int) []ridgeLine {
	nRows := len(cwt)
	if nRows == 0 {
		return nil
	}
	var active []*ridgeLine
	var finished []ridgeLine

	for row := nRows - 1; row >= 0; row-- {
		order := maxDistances[row]
		cols := relativeMaxima(cwt[row], order)
		used := make([]bool, len(cols))

		for _, line := range active {
			line.gap++
			prev := line.cols[len(line.cols)-1]
			best, bestDist := -1, math.MaxInt
			for ci, c := range cols {
				if used[ci] {
					continue
				}
				d := abs(c - prev)
				if d <= maxDistances[row] && d < bestDist {
					best, bestDist = ci, d
				}
			}
			if best >= 0 {
				line.rows = append(line.rows, row)
				line.cols = append(line.cols, cols[best])
				line.gap = 0
				used[best] = true
			}
		}

		// Retire lines that exceeded the gap threshold.
		kept := active[:0]
		for _, line := range active {
			if line.gap > gapThresh {
				finished = append(finished, *line)
			} else {
				kept = append(kept, line)
			}
		}
		active = kept

		// Unmatched maxima start new lines.
		for ci, c := range cols {
			if !used[ci] {
				active = append(active, &ridgeLine{rows: []int{row}, cols: []int{c}})
			}
		}
	}
	for _, line := range active {
		finished = append(finished, *line)
	}
	return finished
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Options tunes FindPeaksCWT. Zero values select the scipy defaults,
// except MinRelStrength which is an extra guard this implementation adds:
// peaks whose coarse-scale response is a tiny fraction of the strongest
// ridge are discarded (latency histograms have a handful of comparable
// peaks, so this only removes noise).
type Options struct {
	GapThresh      int     // allowed missed rows when linking (default 2)
	MinLength      int     // minimum ridge length (default ceil(len(widths)/4), ≥3)
	MinSNR         float64 // minimum signal-to-noise ratio (default 1.0)
	NoisePerc      float64 // percentile of |cwt[0]| used as noise floor (default 10)
	WindowSize     int     // noise estimation window (default len(signal)/20)
	MinRelStrength float64 // min origin response relative to strongest ridge (default 0.02; <0 disables)

	// Obs, when non-nil, receives the ladder's backend and memoization
	// counters (ricker_cache_hits, kernel_spectrum_hits, cwt_fft_rows, …).
	Obs *obs.Span
}

// FindPeaksCWT returns the indices of peaks in signal, smallest first.
func FindPeaksCWT(signal []float64, widths []int, opt Options) []int {
	return findPeaksCWTMode(signal, widths, opt, convModeAuto)
}

// findPeaksCWTMode is FindPeaksCWT with an explicit convolution backend;
// the forced modes back the direct-vs-FFT bin-identity tests.
func findPeaksCWTMode(signal []float64, widths []int, opt Options, mode convMode) []int {
	if len(signal) == 0 || len(widths) == 0 {
		return nil
	}
	if opt.GapThresh == 0 {
		opt.GapThresh = 2
	}
	if opt.MinLength == 0 {
		opt.MinLength = (len(widths) + 3) / 4
	}
	if opt.MinLength < 3 {
		opt.MinLength = 3
	}
	if opt.MinSNR == 0 {
		opt.MinSNR = 1.0
	}
	if opt.NoisePerc == 0 {
		opt.NoisePerc = 10
	}
	if opt.WindowSize == 0 {
		opt.WindowSize = len(signal) / 20
	}
	if opt.WindowSize < 3 {
		opt.WindowSize = 3
	}
	if opt.MinRelStrength == 0 {
		opt.MinRelStrength = 0.02
	}

	var counters cwtCounters
	st := cwtScratchPool.Get().(*cwtScratch)
	defer cwtScratchPool.Put(st)
	cwt := st.cwtMatrix(signal, widths, mode, &counters)
	maxDistances := make([]int, len(widths))
	for i, w := range widths {
		d := w / 4
		if d < 1 {
			d = 1
		}
		maxDistances[i] = d
	}
	lines := identifyRidgeLines(cwt, maxDistances, opt.GapThresh)

	// Noise floor per position from the smallest-scale row.
	if cap(st.row0) < len(cwt[0]) {
		st.row0 = make([]float64, len(cwt[0]))
	}
	row0 := st.row0[:len(cwt[0])]
	for i, v := range cwt[0] {
		row0[i] = math.Abs(v)
	}

	type candidate struct {
		pos      int
		strength float64
	}
	var cands []candidate
	maxStrength := 0.0
	for _, line := range lines {
		if len(line.rows) < opt.MinLength {
			continue
		}
		// Position: the column at the smallest scale on the ridge (Du et
		// al. use the fine end for spatial accuracy; scipy reports the
		// coarse end — for symmetric latency peaks they coincide).
		pos := line.cols[len(line.cols)-1]
		// Ridge strength: the response at the ridge's origin (largest
		// linked scale). A genuine peak has a strong *positive* response
		// there; the negative side lobes of neighbouring peaks and noise
		// wiggles do not.
		strength := cwt[line.rows[0]][line.cols[0]]
		if strength <= 0 {
			continue
		}
		// Symmetric window [pos-W, pos+W], inclusive on both sides like
		// scipy's — slicing to pos+W would include pos-W on the left but
		// exclude pos+W on the right, skewing the noise floor of peaks
		// near the right edge.
		lo := pos - opt.WindowSize
		if lo < 0 {
			lo = 0
		}
		hi := pos + opt.WindowSize + 1
		if hi > len(row0) {
			hi = len(row0)
		}
		noise := percentileScratch(&st.noise, row0[lo:hi], opt.NoisePerc)
		if noise <= 0 {
			noise = 1e-12
		}
		if strength/noise < opt.MinSNR {
			continue
		}
		cands = append(cands, candidate{pos: pos, strength: strength})
		if strength > maxStrength {
			maxStrength = strength
		}
	}

	var peaks []int
	for _, c := range cands {
		if opt.MinRelStrength > 0 && c.strength < opt.MinRelStrength*maxStrength {
			continue
		}
		peaks = append(peaks, c.pos)
	}

	// Sort and merge peaks closer than the smallest width.
	sortInts(peaks)
	minSep := widths[0]
	var out []int
	for _, p := range peaks {
		if len(out) > 0 && p-out[len(out)-1] < minSep {
			continue
		}
		out = append(out, p)
	}

	if sp := opt.Obs; sp != nil {
		sp.Add("ricker_cache_hits", counters.waveletHits)
		sp.Add("ricker_cache_misses", counters.waveletMisses)
		sp.Add("kernel_spectrum_hits", counters.spectrumHits)
		sp.Add("kernel_spectrum_misses", counters.spectrumMisses)
		sp.Add("cwt_fft_rows", counters.fftRows)
		sp.Add("cwt_direct_rows", counters.directRows)
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// percentile returns the p-th percentile (0–100) of values (copied, not
// mutated).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	cp := append([]float64(nil), values...)
	sortFloats(cp)
	return sortedPercentile(cp, p)
}

// percentileScratch is percentile with a caller-owned copy buffer, so
// the per-candidate noise windows of a ladder reuse one allocation.
func percentileScratch(buf *[]float64, values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	*buf = append((*buf)[:0], values...)
	cp := *buf
	if len(cp) > 64 {
		// Large serve-path windows: O(n log n) sort. The sorted order —
		// and hence the percentile — is identical to sortFloats'.
		sort.Float64s(cp)
	} else {
		sortFloats(cp)
	}
	return sortedPercentile(cp, p)
}

// sortedPercentile returns the p-th percentile (0–100) of an
// already-sorted, non-empty slice by linear interpolation between the
// closest ranks.
func sortedPercentile(cp []float64, p float64) float64 {
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(cp) {
		return cp[lo]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

func sortFloats(a []float64) {
	// Insertion sort: noise windows are small.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// DefaultWidths returns the width ladder 1..max used by the analysis.
func DefaultWidths(max int) []int {
	if max < 2 {
		max = 2
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
