package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (numpy's default). xs need not be sorted; it is not
// modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantiles are the candidate tail percentiles, highest first. The
// list stops at p99: a serve window's op count straddles the 10 000 at
// which p99.9 would qualify, and a tail that switched percentile between
// runs would not be comparable.
var tailQuantiles = []struct {
	q     float64
	label string
}{
	{0.99, "p99"},
	{0.9, "p90"},
}

// minBeyondTail is how many samples must lie beyond a tail percentile
// for it to be reported; with fewer, a single outlier sets the value.
const minBeyondTail = 10

// tail returns the highest percentile with at least minBeyondTail
// samples beyond it, and its label. When even p90 has fewer (under 100
// samples), the maximum is the only honest tail and is labelled "max".
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	for _, t := range tailQuantiles {
		// Round: 100 × (1 − 0.9) is 9.999… in floating point.
		if math.Round(n*(1-t.q)) >= minBeyondTail {
			return quantile(xs, t.q), t.label
		}
	}
	return quantile(xs, 1), "max"
}

// geomean averages ratios in log space.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// groupedTail is the median, over groups, of each group's tail: a time
// slice of a hit window, a serve-cold round, a reproduce pass. A burst
// of slowness on the shared host then moves one group's tail, not the
// reported one. groups[i] is the group of xs[i]; nil means one group.
func groupedTail(xs []float64, groups []int) (float64, string) {
	if groups == nil {
		return tail(xs)
	}
	by := map[int][]float64{}
	for i, x := range xs {
		by[groups[i]] = append(by[groups[i]], x)
	}
	var tails []float64
	labels := map[string]bool{}
	for _, g := range by {
		t, l := tail(g)
		tails = append(tails, t)
		labels[l] = true
	}
	label := "mixed"
	for l := range labels {
		if len(labels) == 1 {
			label = l
		}
	}
	return median(tails), fmt.Sprintf("median of %d group %s", len(tails), label)
}
