package peaks

import (
	"fmt"
	"math"
	"testing"
)

// benchHistogram builds a histogram-like signal of n bins with four
// latency populations (the Figure 4 shape scaled to n), plus a little
// deterministic ripple so no two bins tie exactly.
func benchHistogram(n int) []float64 {
	sig := make([]float64, n)
	for _, cf := range []float64{0.10, 0.29, 0.50, 0.81} {
		c := cf * float64(n)
		sigma := float64(n) / 100
		for i := range sig {
			d := float64(i) - c
			sig[i] += 100 * math.Exp(-d*d/(2*sigma*sigma))
		}
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range sig {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sig[i] += float64(x%1000) / 1000
	}
	return sig
}

// sparseHistogram builds the shape of a serve-cold loop-latency
// histogram: n bins counting `samples` draws, most from four narrow
// latency populations and a twentieth spread over the whole range, so
// most bins away from the populations stay empty. At (785, 3400) it has
// 297 non-zero bins, like DFS's serve-cold histogram (785 bins, 289
// non-zero).
func sparseHistogram(n, samples int) []float64 {
	sig := make([]float64, n)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for s := 0; s < samples; s++ {
		var pos float64
		if next() < 0.05 {
			pos = next() * float64(n)
		} else {
			c := []float64{0.30, 0.45, 0.56, 0.70}[int(next()*4)]
			// Sum of three uniforms: a cheap bell around c.
			pos = (c + (next()+next()+next()-1.5)*0.02) * float64(n)
		}
		if i := int(pos); i >= 0 && i < n {
			sig[i]++
		}
	}
	return sig
}

// ladderWidths mirrors Histogram.Peaks' automatic width ladder: bins/8
// capped at MaxAutoWidth.
func ladderWidths(n int) []int {
	maxWidth := n / 8
	if maxWidth > MaxAutoWidth {
		maxWidth = MaxAutoWidth
	}
	if maxWidth < 2 {
		maxWidth = 2
	}
	return DefaultWidths(maxWidth)
}

// BenchmarkHotCWTLadder is the analysis hot path end to end: the full
// width-ladder CWT peak detection on histograms from Figure 4 size up to
// the large degenerate-profile sizes the serve path sees under load. The
// bins=N cases have no empty bin; sparse/bins=785 is shaped like a
// serve-cold histogram, whose direct rows skip the empty bins. Tracked by
// the CI bench gate.
func BenchmarkHotCWTLadder(b *testing.B) {
	run := func(name string, sig []float64) {
		widths := ladderWidths(len(sig))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := FindPeaksCWT(sig, widths, Options{}); len(got) == 0 {
					b.Fatal("no peaks")
				}
			}
		})
	}
	for _, n := range []int{400, 2048, 8192, 32768} {
		run(fmt.Sprintf("bins=%d", n), benchHistogram(n))
	}
	run("sparse/bins=785", sparseHistogram(785, 3400))
}

// BenchmarkHotCWTRow times one CWT row (signal ⊛ widest Ricker wavelet
// of the ladder) — the unit the FFT cutover decides on.
func BenchmarkHotCWTRow(b *testing.B) {
	for _, n := range []int{400, 8192, 32768} {
		sig := benchHistogram(n)
		widths := ladderWidths(n)
		w := widths[len(widths)-1]
		b.Run(fmt.Sprintf("bins=%d/width=%d", n, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := CWT(sig, []int{w})
				if len(rows[0]) != n {
					b.Fatal("bad row")
				}
			}
		})
	}
}
