// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4). Each experiment returns a result struct whose
// String method prints the same rows/series the paper reports; the
// aptbench CLI and the root bench_test.go expose them individually.
// DESIGN.md §4 maps experiment IDs to paper artifacts.
package experiments

import (
	"fmt"
	"strings"
	"sync"
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

// Options configures an experiment run.
type Options struct {
	// Quick restricts app sweeps to a representative subset (used by
	// -short test runs).
	Quick bool
	// Config overrides the pipeline configuration (zero = default).
	Config core.Config
}

func (o Options) config() core.Config {
	cfg := o.Config
	if cfg.Machine.Name == "" {
		cfg = core.DefaultConfig()
	}
	// Sweeps verify each workload once via the baseline; transformed
	// runs are verified too (cheap relative to simulation), so keep
	// verification on everywhere.
	return cfg
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

// ---------------------------------------------------------------------
// Shared three-way comparison (baseline / A&J / APT-GET) per app.
// Figures 5, 6, 7 and 11 are different projections of the same runs, so
// they share one cached sweep.

// AppComparison holds one application's three-way run.
type AppComparison struct {
	Key string
	Cmp *core.Comparison
}

var cmpCache sync.Map // string cache key -> []AppComparison

func comparisonCacheKey(o Options) string {
	return fmt.Sprintf("quick=%v/machine=%s", o.Quick, o.config().Machine.Name)
}

// FullComparisons runs (or returns cached) baseline/static/apt-get runs
// for every application. The apps are independent jobs fanned out over
// the runner pool; results come back in registry order.
func FullComparisons(o Options) ([]AppComparison, error) {
	key := comparisonCacheKey(o)
	if v, ok := cmpCache.Load(key); ok {
		return v.([]AppComparison), nil
	}
	cfg := o.config()
	entries := apps(o)
	out, err := runner.Map(len(entries), func(i int) (AppComparison, error) {
		e := entries[i]
		cmp, err := core.Compare(e.New(), cfg)
		if err != nil {
			return AppComparison{}, fmt.Errorf("experiments: %s: %w", e.Key, err)
		}
		return AppComparison{Key: e.Key, Cmp: cmp}, nil
	})
	if err != nil {
		return nil, err
	}
	cmpCache.Store(key, out)
	return out, nil
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
