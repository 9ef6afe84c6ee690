// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4). Each experiment returns a result struct whose
// String method prints the same rows/series the paper reports; the
// aptbench CLI and the root bench_test.go expose them individually.
// DESIGN.md §4 maps experiment IDs to paper artifacts.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/mem"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// Level aliases used by the figure projections.
const (
	memLLC  = mem.LevelLLC
	memDRAM = mem.LevelDRAM
	memFB   = mem.LevelFB
)

// Options configures an experiment run. Every experiment runs the
// evaluation's pipeline configuration, evalConfig.
type Options struct {
	// Quick restricts app sweeps to a representative subset (used by
	// -short test runs).
	Quick bool
}

// apps returns the benchmark set for a run.
func apps(o Options) []workloads.Entry {
	all := workloads.Registry()
	if !o.Quick {
		return all
	}
	var out []workloads.Entry
	for _, e := range all {
		switch e.Key {
		case "BFS", "SSSP", "IS", "HJ8":
			out = append(out, e)
		}
	}
	return out
}

// table renders rows with a header through a tabwriter.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

// runs is the evaluation's run cache: experiments reach every
// simulation through evalConfig, so a run two experiments (or two cells
// of one) share is simulated once per process. Entries are never
// evicted, so a process that keeps running experiments keeps every
// run's counters and samples.
var runs = new(core.RunCache)

// evalConfig returns the evaluation's pipeline configuration,
// core.DefaultConfig, sharing runs through the package's run cache.
func evalConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Runs = runs
	return cfg
}

// comparison returns the app's baseline / Ainsworth & Jones / APT-GET
// runs. The baseline is the profiling run, and AptGet.Plans are the
// plans derived from it.
func comparison(e workloads.Entry) (*core.Comparison, error) {
	cmp, err := core.Compare(e.New(), evalConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.Key, err)
	}
	return cmp, nil
}

// AppComparison holds one application's three-way run.
type AppComparison struct {
	Key string
	Cmp *core.Comparison
}

// FullComparisons returns the three-way comparison of every application
// in registry order. The apps are independent jobs fanned out over the
// runner pool.
func FullComparisons(o Options) ([]AppComparison, error) {
	entries := apps(o)
	return runner.Map(len(entries), func(i int) (AppComparison, error) {
		cmp, err := comparison(entries[i])
		return AppComparison{Key: entries[i].Key, Cmp: cmp}, err
	})
}

// forceDistance returns a copy of the plans with every distance pinned
// to d (both sites), isolating the distance decision — the mechanism
// behind Figures 8 and 9.
func forceDistance(plans []analysis.Plan, d int64) []analysis.Plan {
	out := append([]analysis.Plan(nil), plans...)
	for i := range out {
		out[i].Distance = d
		if out[i].Site == analysis.SiteOuter {
			out[i].OuterDistance = d
		} else {
			out[i].InnerDistance = d
		}
	}
	return out
}

// forceSite returns a copy of the plans with every plan pinned to the
// given injection site, keeping the site-appropriate measured distance —
// the Figure 10 ablation.
func forceSite(plans []analysis.Plan, site analysis.Site) []analysis.Plan {
	out := append([]analysis.Plan(nil), plans...)
	for i := range out {
		p := &out[i]
		p.Site = site
		switch site {
		case analysis.SiteInner:
			if p.InnerDistance < 1 {
				p.InnerDistance = 1
			}
			p.Distance = p.InnerDistance
		case analysis.SiteOuter:
			if p.OuterDistance < 1 {
				// The analysis never measured an outer distance (it chose
				// inner); derive one from the same model: the outer
				// iteration is ~trip inner iterations long.
				trip := int64(p.AvgTrip)
				if trip < 1 {
					trip = 1
				}
				p.OuterDistance = p.InnerDistance / trip
				if p.OuterDistance < 1 {
					p.OuterDistance = 1
				}
			}
			p.Distance = p.OuterDistance
		}
	}
	return out
}
