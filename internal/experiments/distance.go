package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/runner"
	"aptget/internal/workloads"
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

// distanceSweep is one app's static-distance sweep (§4.5–4.6): the
// speedup with every plan's distance pinned to each fig8Distances entry
// (keeping APT-GET's injection sites) and with the LBR-derived
// distances. Figures 8 and 9 are two projections of it.
type distanceSweep struct {
	Key         string
	LBRDistance int64             // distance the analysis picked (first plan)
	Speedups    map[int64]float64 // by pinned distance
	LBRSpeedup  float64
}

// sweep returns the app's distance sweep. The baseline, the plans and
// the LBR-distance run come from the app's comparison; the pinned
// distances are one job each.
func sweep(e workloads.Entry) (*distanceSweep, error) {
	cmp, err := comparison(e)
	if err != nil {
		return nil, err
	}
	plans := cmp.AptGet.Plans
	s := &distanceSweep{Key: e.Key, LBRSpeedup: cmp.AptGetSpeedup()}
	if len(plans) > 0 {
		s.LBRDistance = plans[0].Distance
	}
	sps, err := runner.Map(len(fig8Distances), func(j int) (float64, error) {
		d := fig8Distances[j]
		r, err := core.RunWithPlans(e.New(), forceDistance(plans, d), evalConfig())
		if err != nil {
			return 0, fmt.Errorf("distance sweep %s D=%d: %w", e.Key, d, err)
		}
		return r.Speedup(cmp.Base), nil
	})
	if err != nil {
		return nil, err
	}
	s.Speedups = make(map[int64]float64, len(sps))
	for j, d := range fig8Distances {
		s.Speedups[d] = sps[j]
	}
	return s, nil
}

// sweepAll returns the distance sweep of every app, in registry order.
func sweepAll(o Options) ([]*distanceSweep, error) {
	entries := apps(o)
	return runner.Map(len(entries), func(i int) (*distanceSweep, error) {
		return sweep(entries[i])
	})
}

// Fig8 projects the distance sweep onto the best swept distance per app.
// The best distance is reduced in sweep order, so ties break toward the
// smaller distance.
func Fig8(o Options) (*Fig8Result, error) {
	sws, err := sweepAll(o)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	var bests, apts []float64
	for _, s := range sws {
		row := Fig8Row{Key: s.Key, LBRDistance: s.LBRDistance, AptGetSpeedup: s.LBRSpeedup}
		for _, d := range fig8Distances {
			if sp := s.Speedups[d]; sp > row.BestSpeedup {
				row.BestSpeedup = sp
				row.BestDistance = d
			}
		}
		res.Rows = append(res.Rows, row)
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

// Fig9 projects the distance sweep onto D = 4/16/64 and the LBR run; it
// simulates nothing the sweep has not.
func Fig9(o Options) (*Fig9Result, error) {
	sws, err := sweepAll(o)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	var g4, g16, g64, gl []float64
	for _, s := range sws {
		row := Fig9Row{Key: s.Key, Dist4: s.Speedups[4], Dist16: s.Speedups[16], Dist64: s.Speedups[64], LBR: s.LBRSpeedup}
		res.Rows = append(res.Rows, row)
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
