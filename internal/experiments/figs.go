package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/peaks"
	"aptget/internal/workloads"
)

// Fig4Result reproduces Figure 4: the latency distribution of the loop
// containing a delinquent load, measured from LBR samples, with its CWT
// peaks.
type Fig4Result struct {
	App          string
	LoadPC       uint64
	Hist         *peaks.Histogram
	Peaks        []float64
	IC, MC       float64
	Distance     int64
	NumLatencies int
}

// Fig4 profiles the BFS workload and returns the loop-latency
// distribution of its hottest delinquent load.
func Fig4(o Options) (*Fig4Result, error) {
	cfg := evalConfig()
	e, _ := workloads.ByKey("BFS")
	w := e.New()
	_, plans, err := core.ProfileAndPlan(w, cfg)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("fig4: no delinquent loads in BFS profile")
	}
	p := plans[0]
	h := peaks.NewHistogram(p.Inner.Latencies, 2)
	return &Fig4Result{
		App:          "BFS",
		LoadPC:       p.LoadPC,
		Hist:         h,
		Peaks:        p.Inner.Peaks,
		IC:           p.Inner.IC,
		MC:           p.Inner.MC,
		Distance:     p.Distance,
		NumLatencies: len(p.Inner.Latencies),
	}, nil
}

// String renders the histogram sketch and derived quantities.
func (f *Fig4Result) String() string {
	return fmt.Sprintf(
		"Figure 4: loop latency distribution (%s, load pc=%d, %d samples)\n%s"+
			"peaks=%v  IC=%.0f cycles  MC=%.0f cycles  -> distance=%d\n",
		f.App, f.LoadPC, f.NumLatencies, f.Hist, f.Peaks, f.IC, f.MC, f.Distance)
}

// Fig5Row is one application's memory-boundedness.
type Fig5Row struct {
	Key                        string
	LLCBound, DRAMBound, Total float64
}

// Fig5Result reproduces Figure 5: the fraction of cycles the baseline
// stalls on L3/DRAM per application.
type Fig5Result struct {
	Rows    []Fig5Row
	Average float64
}

// Fig5 runs the experiment (shares runs with Figures 6/7/11).
func Fig5(o Options) (*Fig5Result, error) {
	cmps, err := FullComparisons(o)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	sum := 0.0
	for _, c := range cmps {
		ctr := &c.Cmp.Base.Counters
		llc := ctr.StallFraction(memLLC)
		dram := ctr.StallFraction(memDRAM) + ctr.StallFraction(memFB)
		res.Rows = append(res.Rows, Fig5Row{
			Key: c.Key, LLCBound: llc, DRAMBound: dram, Total: llc + dram,
		})
		sum += llc + dram
	}
	if len(res.Rows) > 0 {
		res.Average = sum / float64(len(res.Rows))
	}
	return res, nil
}

// String renders the figure as a table.
func (f *Fig5Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.1f%%", 100*r.LLCBound),
			fmt.Sprintf("%.1f%%", 100*r.DRAMBound),
			fmt.Sprintf("%.1f%%", 100*r.Total),
		})
	}
	rows = append(rows, []string{"average", "", "", fmt.Sprintf("%.1f%%", 100*f.Average)})
	return "Figure 5: baseline cycles stalled on the memory system\n" +
		table([]string{"app", "L3", "DRAM", "total"}, rows)
}

// Fig6Row is one application's headline speedups.
type Fig6Row struct {
	Key           string
	StaticSpeedup float64
	AptGetSpeedup float64
}

// Fig6Result reproduces Figure 6: execution-time speedup of Ainsworth &
// Jones and APT-GET over the no-prefetching baseline.
type Fig6Result struct {
	Rows          []Fig6Row
	StaticGeoMean float64
	AptGetGeoMean float64
}

// Fig6 runs the experiment.
func Fig6(o Options) (*Fig6Result, error) {
	cmps, err := FullComparisons(o)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	var ss, as []float64
	for _, c := range cmps {
		row := Fig6Row{
			Key:           c.Key,
			StaticSpeedup: c.Cmp.StaticSpeedup(),
			AptGetSpeedup: c.Cmp.AptGetSpeedup(),
		}
		res.Rows = append(res.Rows, row)
		ss = append(ss, row.StaticSpeedup)
		as = append(as, row.AptGetSpeedup)
	}
	res.StaticGeoMean = core.GeoMean(ss)
	res.AptGetGeoMean = core.GeoMean(as)
	return res, nil
}

// String renders the figure as a table.
func (f *Fig6Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.2fx", r.StaticSpeedup),
			fmt.Sprintf("%.2fx", r.AptGetSpeedup),
		})
	}
	rows = append(rows, []string{"geomean",
		fmt.Sprintf("%.2fx", f.StaticGeoMean),
		fmt.Sprintf("%.2fx", f.AptGetGeoMean)})
	return "Figure 6: speedup over no-prefetching baseline\n" +
		table([]string{"app", "Ainsworth&Jones", "APT-GET"}, rows)
}

// Fig7Row is one application's MPKI line.
type Fig7Row struct {
	Key                           string
	BaseMPKI, StaticMPKI, AptMPKI float64
}

// Fig7Result reproduces Figure 7: LLC misses per kilo-instruction.
type Fig7Result struct {
	Rows []Fig7Row
	// Average miss reduction relative to baseline.
	StaticReduction, AptReduction float64
}

// Fig7 runs the experiment.
func Fig7(o Options) (*Fig7Result, error) {
	cmps, err := FullComparisons(o)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	var sr, ar float64
	for _, c := range cmps {
		row := Fig7Row{
			Key:        c.Key,
			BaseMPKI:   c.Cmp.Base.Counters.MPKI(),
			StaticMPKI: c.Cmp.Static.Counters.MPKI(),
			AptMPKI:    c.Cmp.AptGet.Counters.MPKI(),
		}
		res.Rows = append(res.Rows, row)
		if row.BaseMPKI > 0 {
			// Reduction in absolute demand misses (the paper's metric),
			// approximated by the MPKI reduction adjusted for the small
			// instruction-count change.
			sr += 1 - row.StaticMPKI/row.BaseMPKI
			ar += 1 - row.AptMPKI/row.BaseMPKI
		}
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.StaticReduction = sr / n
		res.AptReduction = ar / n
	}
	return res, nil
}

// String renders the figure as a table.
func (f *Fig7Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.1f", r.BaseMPKI),
			fmt.Sprintf("%.1f", r.StaticMPKI),
			fmt.Sprintf("%.1f", r.AptMPKI),
		})
	}
	rows = append(rows, []string{"avg reduction",
		"",
		fmt.Sprintf("%.1f%%", 100*f.StaticReduction),
		fmt.Sprintf("%.1f%%", 100*f.AptReduction)})
	return "Figure 7: demand MPKI (lower is better)\n" +
		table([]string{"app", "baseline", "A&J", "APT-GET"}, rows)
}

// Fig11Row is one application's instruction overhead.
type Fig11Row struct {
	Key                         string
	StaticOverhead, AptOverhead float64
}

// Fig11Result reproduces Figure 11: instructions executed relative to
// the baseline.
type Fig11Result struct {
	Rows                []Fig11Row
	StaticMean, AptMean float64
}

// Fig11 runs the experiment.
func Fig11(o Options) (*Fig11Result, error) {
	cmps, err := FullComparisons(o)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	var ss, as []float64
	for _, c := range cmps {
		row := Fig11Row{
			Key:            c.Key,
			StaticOverhead: c.Cmp.Static.Counters.InstructionOverhead(&c.Cmp.Base.Counters),
			AptOverhead:    c.Cmp.AptGet.Counters.InstructionOverhead(&c.Cmp.Base.Counters),
		}
		res.Rows = append(res.Rows, row)
		ss = append(ss, row.StaticOverhead)
		as = append(as, row.AptOverhead)
	}
	res.StaticMean = core.GeoMean(ss)
	res.AptMean = core.GeoMean(as)
	return res, nil
}

// String renders the figure as a table.
func (f *Fig11Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.2fx", r.StaticOverhead),
			fmt.Sprintf("%.2fx", r.AptOverhead),
		})
	}
	rows = append(rows, []string{"geomean",
		fmt.Sprintf("%.2fx", f.StaticMean),
		fmt.Sprintf("%.2fx", f.AptMean)})
	return "Figure 11: instruction overhead over baseline\n" +
		table([]string{"app", "A&J", "APT-GET"}, rows)
}
