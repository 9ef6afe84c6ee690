package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// AblationRow is one APT-GET variant's aggregate result.
type AblationRow struct {
	Variant       string
	Speedup       float64 // geomean over the app set
	InstrOverhead float64 // geomean instruction overhead
}

// AblationResult evaluates the design choices DESIGN.md §6 calls out by
// disabling them one at a time: staged prefetching, line-granular
// sweeps, the instruction-component recovery, and outer-loop injection.
type AblationResult struct {
	Apps []string
	Rows []AblationRow
}

// ablationVariants lists the disabled design choices under test. The
// full pipeline's row is the apps' comparisons' APT-GET runs.
var ablationVariants = []struct {
	name string
	mut  func(*core.Config)
}{
	{"no staged prefetching", func(c *core.Config) { c.Inject.Inject.DisableStaging = true }},
	{"per-element sweeps", func(c *core.Config) { c.Inject.Inject.DisableLineStride = true }},
	{"raw lowest-peak IC", func(c *core.Config) { c.Analysis.RawIC = true }},
	{"inner-loop only", func(c *core.Config) { c.Analysis.DisableOuter = true }},
}

// Ablation runs the variants over a diverse app subset. The baselines
// and the full pipeline come from the apps' comparisons; the
// variant×app grid is flattened into independent jobs on the runner pool
// and reduced in variant-major order.
func Ablation(o Options) (*AblationResult, error) {
	keys := []string{"BFS", "HJ2", "HJ8", "CG", "randAcc"}
	if o.Quick {
		keys = []string{"HJ8", "randAcc"}
	}
	res := &AblationResult{Apps: keys}

	entries := make([]workloads.Entry, len(keys))
	for i, k := range keys {
		e, ok := workloads.ByKey(k)
		if !ok {
			return nil, fmt.Errorf("ablation: unknown app %s", k)
		}
		entries[i] = e
	}
	cmps, err := runner.Map(len(entries), func(i int) (*core.Comparison, error) {
		return comparison(entries[i])
	})
	if err != nil {
		return nil, err
	}

	runs, err := runner.Map(len(ablationVariants)*len(entries), func(j int) (*core.Result, error) {
		v, e := ablationVariants[j/len(entries)], entries[j%len(entries)]
		cfg := core.DefaultConfig()
		v.mut(&cfg)
		r, err := core.RunPipeline(e.New(), cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s/%s: %w", v.name, e.Key, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	row := func(name string, run func(ai int) *core.Result) AblationRow {
		var sps, ovs []float64
		for ai, c := range cmps {
			r := run(ai)
			sps = append(sps, r.Speedup(c.Base))
			ovs = append(ovs, r.Counters.InstructionOverhead(&c.Base.Counters))
		}
		return AblationRow{Variant: name, Speedup: core.GeoMean(sps), InstrOverhead: core.GeoMean(ovs)}
	}
	res.Rows = append(res.Rows, row("full APT-GET", func(ai int) *core.Result { return cmps[ai].AptGet }))
	for vi, v := range ablationVariants {
		res.Rows = append(res.Rows, row(v.name, func(ai int) *core.Result { return runs[vi*len(entries)+ai] }))
	}
	return res, nil
}

// String renders the ablation as a table.
func (a *AblationResult) String() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Variant,
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2fx", r.InstrOverhead),
		})
	}
	return fmt.Sprintf("Ablation over %v: disable one design choice at a time\n", a.Apps) +
		table([]string{"variant", "geomean speedup", "instr overhead"}, rows)
}

// LBRWidthRow is one record-depth's analysis quality.
type LBRWidthRow struct {
	Width    int
	AvgTrip  float64 // measured trip count (first plan)
	Distance int64   // chosen distance (first plan)
	Speedup  float64
}

// LBRWidthResult measures how the branch-record depth affects the
// analysis: Intel's LBR holds 32 entries; AMD BRS and ARM BRBE differ.
// Shallow rings lose trip-count visibility (§3.6) and latency samples.
type LBRWidthResult struct {
	App  string
	Rows []LBRWidthRow
}

// LBRWidth runs the sensitivity study on BFS: one job per ring depth,
// each profiling and re-running its own BFS instance, against the BFS
// comparison's baseline.
func LBRWidth(o Options) (*LBRWidthResult, error) {
	cfg := core.DefaultConfig()
	e, _ := workloads.ByKey("BFS")
	cmp, err := comparison(e)
	if err != nil {
		return nil, err
	}
	widths := []int{4, 8, 16, 32, 64}
	if o.Quick {
		widths = []int{8, 32}
	}
	rows, err := runner.Map(len(widths), func(i int) (LBRWidthRow, error) {
		width := widths[i]
		c := cfg
		c.Profile.LBRWidth = width
		_, plans, err := core.ProfileAndPlan(e.New(), c)
		if err != nil {
			return LBRWidthRow{}, fmt.Errorf("lbrwidth %d: %w", width, err)
		}
		row := LBRWidthRow{Width: width}
		if len(plans) > 0 {
			row.AvgTrip = plans[0].AvgTrip
			row.Distance = plans[0].Distance
		}
		r, err := core.RunWithPlans(e.New(), plans, c)
		if err != nil {
			return LBRWidthRow{}, fmt.Errorf("lbrwidth %d run: %w", width, err)
		}
		row.Speedup = r.Speedup(cmp.Base)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &LBRWidthResult{App: e.Key, Rows: rows}, nil
}

// String renders the study as a table.
func (l *LBRWidthResult) String() string {
	var rows [][]string
	for _, r := range l.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Width),
			fmt.Sprintf("%.1f", r.AvgTrip),
			fmt.Sprintf("%d", r.Distance),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return fmt.Sprintf("LBR record depth sensitivity (%s): Intel LBR=32; AMD BRS / ARM BRBE differ\n", l.App) +
		table([]string{"width", "measured trip", "distance", "speedup"}, rows)
}
