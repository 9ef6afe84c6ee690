package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// Table1Row is one row of Table 1.
type Table1Row struct {
	Label            string
	IPC              float64
	PrefetchAccuracy float64 // offcore share of prefetch-flavoured reads
	LatePrefetch     float64 // LOAD_HIT_PRE.SW_PF / prefetches issued
}

// Table1Result reproduces Table 1: prefetch accuracy and timeliness of
// the static pass on the microbenchmark (INNER=256, low complexity) at
// distances {none, 1, 64, 1024}.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the experiment. The baseline and the three distances are
// four independent jobs on the runner pool.
func Table1(o Options) (*Table1Result, error) {
	cfg := core.DefaultConfig()
	distances := []int64{1, 64, 1024}

	rows, err := runner.Map(1+len(distances), func(i int) (Table1Row, error) {
		w := workloads.NewMicro(256, workloads.ComplexityLow)
		if i == 0 {
			base, err := core.RunBaseline(w, cfg)
			if err != nil {
				return Table1Row{}, err
			}
			return Table1Row{Label: "None", IPC: base.Counters.IPC()}, nil
		}
		d := distances[i-1]
		c := cfg
		c.Static.Distance = d
		r, err := core.RunStatic(w, c)
		if err != nil {
			return Table1Row{}, fmt.Errorf("table1 dist %d: %w", d, err)
		}
		return Table1Row{
			Label:            fmt.Sprintf("Dist-%d", d),
			IPC:              r.Counters.IPC(),
			PrefetchAccuracy: r.Counters.PrefetchAccuracy(),
			LatePrefetch:     r.Counters.LatePrefetchRatio(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// String renders the table.
func (t *Table1Result) String() string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{
			r.Label,
			fmt.Sprintf("%.2f", r.IPC),
			fmt.Sprintf("%.0f%%", 100*r.PrefetchAccuracy),
			fmt.Sprintf("%.0f%%", 100*r.LatePrefetch),
		}
	}
	return "Table 1: prefetch accuracy and timeliness vs. distance (micro, INNER=256, low)\n" +
		table([]string{"Prefetch", "IPC", "Accuracy", "Late"}, rows)
}

// DistanceSweepSeries is one speedup-vs-distance curve.
type DistanceSweepSeries struct {
	Label     string
	Distances []int64
	Speedups  []float64
	Best      int64 // distance with the highest speedup
}

// Fig1Result reproduces Figure 1: speedup vs. prefetch distance for the
// three work-function complexities (INNER=256).
type Fig1Result struct {
	Series []DistanceSweepSeries
}

// Fig1 runs the experiment: three complexity series, each a distance
// sweep, all fanned out on the runner pool.
func Fig1(o Options) (*Fig1Result, error) {
	distances := []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	cs := []workloads.Complexity{
		workloads.ComplexityLow, workloads.ComplexityMedium, workloads.ComplexityHigh,
	}
	series, err := runner.Map(len(cs), func(i int) (DistanceSweepSeries, error) {
		return microSweep(o, 256, cs[i], distances)
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Series: series}, nil
}

// Fig2Result reproduces Figure 2: speedup vs. distance for low
// complexity and inner trip counts {4, 16, 64}.
type Fig2Result struct {
	Series []DistanceSweepSeries
}

// Fig2 runs the experiment.
func Fig2(o Options) (*Fig2Result, error) {
	distances := []int64{1, 2, 4, 8, 16, 32, 64}
	inners := []int64{4, 16, 64}
	series, err := runner.Map(len(inners), func(i int) (DistanceSweepSeries, error) {
		s, err := microSweep(o, inners[i], workloads.ComplexityLow, distances)
		if err != nil {
			return s, err
		}
		s.Label = fmt.Sprintf("INNER=%d", inners[i])
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Series: series}, nil
}

// microSweep enumerates the baseline plus one job per distance, runs them
// on the pool, and reduces the speedup curve in distance order (so the
// reported optimum ties break exactly as the serial loop did).
func microSweep(o Options, inner int64, c workloads.Complexity, distances []int64) (DistanceSweepSeries, error) {
	cfg := core.DefaultConfig()
	s := DistanceSweepSeries{
		Label:     c.String(),
		Distances: distances,
	}
	runs, err := runner.Map(1+len(distances), func(i int) (*core.Result, error) {
		if i == 0 {
			return core.RunBaseline(workloads.NewMicro(inner, c), cfg)
		}
		d := distances[i-1]
		cc := cfg
		cc.Static.Distance = d
		r, err := core.RunStatic(workloads.NewMicro(inner, c), cc)
		if err != nil {
			return nil, fmt.Errorf("micro sweep inner=%d dist=%d: %w", inner, d, err)
		}
		return r, nil
	})
	if err != nil {
		return s, err
	}
	base := runs[0]
	best := 0.0
	for i, d := range distances {
		sp := runs[1+i].Speedup(base)
		s.Speedups = append(s.Speedups, sp)
		if sp > best {
			best = sp
			s.Best = d
		}
	}
	return s, nil
}

func sweepString(title string, series []DistanceSweepSeries) string {
	if len(series) == 0 {
		return title + "\n(no data)\n"
	}
	header := []string{"distance"}
	for _, s := range series {
		header = append(header, s.Label)
	}
	var rows [][]string
	for i, d := range series[0].Distances {
		row := []string{fmt.Sprintf("%d", d)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.2fx", s.Speedups[i]))
		}
		rows = append(rows, row)
	}
	bests := []string{"best"}
	for _, s := range series {
		bests = append(bests, fmt.Sprintf("@%d", s.Best))
	}
	rows = append(rows, bests)
	return title + "\n" + table(header, rows)
}

// String renders the figure as a table.
func (f *Fig1Result) String() string {
	return sweepString("Figure 1: speedup vs. prefetch distance (INNER=256, work complexity)", f.Series)
}

// String renders the figure as a table.
func (f *Fig2Result) String() string {
	return sweepString("Figure 2: speedup vs. prefetch distance (low complexity, inner trip count)", f.Series)
}
