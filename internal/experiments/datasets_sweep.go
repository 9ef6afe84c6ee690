package experiments

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/graphgen"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// Fig6xRow is one application×dataset cell.
type Fig6xRow struct {
	App, Dataset  string
	StaticSpeedup float64
	AptGetSpeedup float64
}

// Fig6xResult extends Figure 6 the way the paper's x-axis does: the
// graph kernels evaluated across several Table 4 datasets (web crawls,
// p2p, road networks, social), showing how input structure shifts the
// win between the static pass and APT-GET.
type Fig6xResult struct {
	Rows                      []Fig6xRow
	StaticGeoMean, AptGeoMean float64
}

func fig6xCells(o Options) []struct {
	app, ds string
	mk      func() core.Workload
} {
	bfs := func(ds string) func() core.Workload {
		return func() core.Workload {
			d, _ := graphgen.ByName(ds)
			g := d.Make()
			return workloads.NewBFS("BFS-"+ds, g, workloads.TopDegreeVertices(g, 1)[0])
		}
	}
	pr := func(ds string) func() core.Workload {
		return func() core.Workload {
			d, _ := graphgen.ByName(ds)
			return workloads.NewPageRank("PR-"+ds, d.Make(), 2)
		}
	}
	dfs := func(ds string) func() core.Workload {
		return func() core.Workload {
			d, _ := graphgen.ByName(ds)
			g := d.Make()
			return workloads.NewDFS("DFS-"+ds, g, workloads.TopDegreeVertices(g, 1)[0])
		}
	}
	cells := []struct {
		app, ds string
		mk      func() core.Workload
	}{
		{"BFS", "WG", bfs("WG")},
		{"BFS", "LBE", bfs("LBE")},
		{"BFS", "WB", bfs("WB")},
		{"BFS", "CA", bfs("CA")},
		{"BFS", "PA", bfs("PA")},
		{"PR", "WN", pr("WN")},
		{"PR", "WS", pr("WS")},
		{"DFS", "P2P", dfs("P2P")},
		{"DFS", "WN", dfs("WN")},
	}
	if o.Quick {
		return cells[:3]
	}
	return cells
}

// Fig6x runs the dataset sweep: one job per app×dataset cell.
func Fig6x(o Options) (*Fig6xResult, error) {
	cfg := evalConfig()
	cells := fig6xCells(o)
	rows, err := runner.Map(len(cells), func(i int) (Fig6xRow, error) {
		c := cells[i]
		cmp, err := core.Compare(c.mk(), cfg)
		if err != nil {
			return Fig6xRow{}, fmt.Errorf("fig6x %s/%s: %w", c.app, c.ds, err)
		}
		return Fig6xRow{
			App: c.app, Dataset: c.ds,
			StaticSpeedup: cmp.StaticSpeedup(),
			AptGetSpeedup: cmp.AptGetSpeedup(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6xResult{Rows: rows}
	var ss, as []float64
	for _, row := range rows {
		ss = append(ss, row.StaticSpeedup)
		as = append(as, row.AptGetSpeedup)
	}
	res.StaticGeoMean = core.GeoMean(ss)
	res.AptGeoMean = core.GeoMean(as)
	return res, nil
}

// String renders the sweep as a table.
func (f *Fig6xResult) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.App, r.Dataset,
			fmt.Sprintf("%.2fx", r.StaticSpeedup),
			fmt.Sprintf("%.2fx", r.AptGetSpeedup),
		})
	}
	rows = append(rows, []string{"geomean", "",
		fmt.Sprintf("%.2fx", f.StaticGeoMean),
		fmt.Sprintf("%.2fx", f.AptGeoMean)})
	return "Figure 6 (extended): graph kernels across Table 4 datasets\n" +
		table([]string{"app", "dataset", "A&J", "APT-GET"}, rows)
}
