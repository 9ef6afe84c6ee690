package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/runner"
)

// Fig8Row compares the LBR-derived distance against an exhaustive static
// sweep for one application.
type Fig8Row struct {
	Key           string
	BestDistance  int64   // best distance from the sweep D={1..128}
	BestSpeedup   float64 // speedup at that distance
	AptGetSpeedup float64 // speedup with the LBR-computed distance
	LBRDistance   int64   // distance the analysis picked (first plan)
}

// Fig8Result reproduces Figure 8: the LBR sampling technique finds a
// near-optimal prefetch distance. The sweep pins every plan's distance
// (keeping APT-GET's injection sites) to isolate the distance decision.
type Fig8Result struct {
	Rows                       []Fig8Row
	BestGeoMean, AptGetGeoMean float64
}

// fig8Distances is the paper's sweep set D = {1,2,4,8,16,32,64,128}.
var fig8Distances = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// Fig8 runs the experiment: one job per app, and within each app one job
// per sweep distance (plus the LBR-distance run). The best distance is
// reduced in sweep order, so ties break exactly as the serial loop did.
func Fig8(o Options) (*Fig8Result, error) {
	cfg := o.config()
	entries := apps(o)
	rows, err := runner.Map(len(entries), func(i int) (Fig8Row, error) {
		e := entries[i]
		base, plans, err := core.BaselineAndPlans(e.New(), cfg)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s: %w", e.Key, err)
		}
		row := Fig8Row{Key: e.Key}
		if len(plans) > 0 {
			row.LBRDistance = plans[0].Distance
		}
		runs, err := runner.Map(len(fig8Distances)+1, func(j int) (*core.Result, error) {
			if j == len(fig8Distances) {
				r, err := core.RunWithPlans(e.New(), plans, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig8 %s apt: %w", e.Key, err)
				}
				return r, nil
			}
			d := fig8Distances[j]
			r, err := core.RunWithPlans(e.New(), forceDistance(plans, d), cfg)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s dist %d: %w", e.Key, d, err)
			}
			return r, nil
		})
		if err != nil {
			return Fig8Row{}, err
		}
		for j, d := range fig8Distances {
			if sp := runs[j].Speedup(base); sp > row.BestSpeedup {
				row.BestSpeedup = sp
				row.BestDistance = d
			}
		}
		row.AptGetSpeedup = runs[len(fig8Distances)].Speedup(base)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Rows: rows}
	var bests, apts []float64
	for _, row := range rows {
		bests = append(bests, row.BestSpeedup)
		apts = append(apts, row.AptGetSpeedup)
	}
	res.BestGeoMean = core.GeoMean(bests)
	res.AptGetGeoMean = core.GeoMean(apts)
	return res, nil
}

// String renders the figure as a table.
func (f *Fig8Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%d", r.BestDistance),
			fmt.Sprintf("%.2fx", r.BestSpeedup),
			fmt.Sprintf("%d", r.LBRDistance),
			fmt.Sprintf("%.2fx", r.AptGetSpeedup),
		})
	}
	rows = append(rows, []string{"geomean", "",
		fmt.Sprintf("%.2fx", f.BestGeoMean), "",
		fmt.Sprintf("%.2fx", f.AptGetGeoMean)})
	return "Figure 8: exhaustive-sweep optimum vs. LBR-derived distance\n" +
		table([]string{"app", "best D", "best speedup", "LBR D", "APT-GET"}, rows)
}

// Fig9Row compares fixed global distances against the LBR distance.
type Fig9Row struct {
	Key    string
	Dist4  float64
	Dist16 float64
	Dist64 float64
	LBR    float64
}

// Fig9Result reproduces Figure 9: static distances 4/16/64 vs. the
// LBR-computed distance (all at APT-GET's injection sites).
type Fig9Result struct {
	Rows                       []Fig9Row
	Geo4, Geo16, Geo64, GeoLBR float64
}

// Fig9 runs the experiment: one job per app; the three fixed distances
// and the LBR-distance run fan out within each.
func Fig9(o Options) (*Fig9Result, error) {
	cfg := o.config()
	fixed := []int64{4, 16, 64}
	entries := apps(o)
	rows, err := runner.Map(len(entries), func(i int) (Fig9Row, error) {
		e := entries[i]
		base, plans, err := core.BaselineAndPlans(e.New(), cfg)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("fig9 %s: %w", e.Key, err)
		}
		sps, err := runner.Map(len(fixed)+1, func(j int) (float64, error) {
			p := plans
			if j < len(fixed) {
				p = forceDistance(plans, fixed[j])
			}
			r, err := core.RunWithPlans(e.New(), p, cfg)
			if err != nil {
				return 0, fmt.Errorf("fig9 %s: %w", e.Key, err)
			}
			return r.Speedup(base), nil
		})
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			Key: e.Key, Dist4: sps[0], Dist16: sps[1], Dist64: sps[2], LBR: sps[3],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Rows: rows}
	var g4, g16, g64, gl []float64
	for _, row := range rows {
		g4 = append(g4, row.Dist4)
		g16 = append(g16, row.Dist16)
		g64 = append(g64, row.Dist64)
		gl = append(gl, row.LBR)
	}
	res.Geo4, res.Geo16, res.Geo64, res.GeoLBR =
		core.GeoMean(g4), core.GeoMean(g16), core.GeoMean(g64), core.GeoMean(gl)
	return res, nil
}

// String renders the figure as a table.
func (f *Fig9Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.2fx", r.Dist4),
			fmt.Sprintf("%.2fx", r.Dist16),
			fmt.Sprintf("%.2fx", r.Dist64),
			fmt.Sprintf("%.2fx", r.LBR),
		})
	}
	rows = append(rows, []string{"geomean",
		fmt.Sprintf("%.2fx", f.Geo4),
		fmt.Sprintf("%.2fx", f.Geo16),
		fmt.Sprintf("%.2fx", f.Geo64),
		fmt.Sprintf("%.2fx", f.GeoLBR)})
	return "Figure 9: fixed distances vs. LBR-computed distance\n" +
		table([]string{"app", "D=4", "D=16", "D=64", "LBR"}, rows)
}
