package experiments

import (
	"fmt"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/graphgen"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// Fig10Row compares forced-inner against forced-outer injection.
type Fig10Row struct {
	Key          string
	InnerSpeedup float64
	OuterSpeedup float64
	ChosenSite   string // site APT-GET actually picks
}

// Fig10Result reproduces Figure 10: the effect of the prefetch injection
// site for nested-loop applications across inputs with different degree
// distributions.
type Fig10Result struct {
	Rows []Fig10Row
}

// fig10Apps returns the nested-loop workloads the paper studies,
// including BFS on inputs with different average degrees (loc-Brightkite
// degree ≈3 vs. a synthetic 80k-vertex degree-8 graph).
func fig10Apps(o Options) []workloads.Entry {
	entries := []workloads.Entry{
		{Key: "BFS-LBE", New: func() core.Workload {
			d, _ := graphgen.ByName("LBE")
			g := d.Make()
			return workloads.NewBFS("BFS-LBE", g, workloads.TopDegreeVertices(g, 1)[0])
		}},
		{Key: "BFS-80k-d8", New: func() core.Workload {
			g := graphgen.Uniform("80k-d8", 80_000, 8, 2021)
			return workloads.NewBFS("BFS-80k-d8", g, workloads.TopDegreeVertices(g, 1)[0])
		}},
	}
	keys := []string{"DFS", "SSSP", "HJ2", "HJ8", "G500"}
	if o.Quick {
		entries = entries[:1]
		keys = []string{"DFS", "HJ8"}
	}
	for _, k := range keys {
		if e, ok := workloads.ByKey(k); ok {
			entries = append(entries, e)
		}
	}
	return entries
}

// Fig10 runs the experiment: one job per app, with the forced-inner and
// forced-outer runs fanned out within each. The baseline and the plans
// are the app's comparison's.
func Fig10(o Options) (*Fig10Result, error) {
	cfg := evalConfig()
	entries := fig10Apps(o)
	rows, err := runner.Map(len(entries), func(i int) (Fig10Row, error) {
		e := entries[i]
		cmp, err := comparison(e)
		if err != nil {
			return Fig10Row{}, err
		}
		plans := cmp.AptGet.Plans
		row := Fig10Row{Key: e.Key, ChosenSite: siteSummary(plans)}
		sites := []analysis.Site{analysis.SiteInner, analysis.SiteOuter}
		sps, err := runner.Map(len(sites), func(j int) (float64, error) {
			r, err := core.RunWithPlans(e.New(), forceSite(plans, sites[j]), cfg)
			if err != nil {
				return 0, fmt.Errorf("fig10 %s %v: %w", e.Key, sites[j], err)
			}
			return r.Speedup(cmp.Base), nil
		})
		if err != nil {
			return Fig10Row{}, err
		}
		row.InnerSpeedup, row.OuterSpeedup = sps[0], sps[1]
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Rows: rows}, nil
}

// siteSummary counts the sites chosen across a workload's plans.
func siteSummary(plans []analysis.Plan) string {
	if len(plans) == 0 {
		return "none"
	}
	inner, outer := 0, 0
	for _, p := range plans {
		if p.Site == analysis.SiteOuter {
			outer++
		} else {
			inner++
		}
	}
	switch {
	case outer == 0:
		return "inner"
	case inner == 0:
		return "outer"
	default:
		return fmt.Sprintf("outer×%d inner×%d", outer, inner)
	}
}

// String renders the figure as a table.
func (f *Fig10Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.2fx", r.InnerSpeedup),
			fmt.Sprintf("%.2fx", r.OuterSpeedup),
			r.ChosenSite,
		})
	}
	return "Figure 10: inner- vs. outer-loop injection (forced sites)\n" +
		table([]string{"app", "inner", "outer", "APT-GET picks"}, rows)
}
