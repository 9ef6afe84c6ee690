package experiments

import (
	"fmt"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/graphgen"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// Fig12Row is one application's train/test generalization result.
type Fig12Row struct {
	Key          string
	TrainSpeedup float64 // profiled and evaluated on the same input
	TestSpeedup  float64 // profiled on train input, evaluated on test input
}

// Fig12Result reproduces Figure 12: APT-GET generalizes across inputs —
// plans derived from a training dataset transfer to a different dataset
// of the same application with nearly the same speedup.
type Fig12Result struct {
	Rows                      []Fig12Row
	TrainGeoMean, TestGeoMean float64
}

// fig12Pair is a workload with train and test input variants. The two
// builds are structurally identical (same instruction sequence), so
// plans carry over — the same property AutoFDO relies on with stale
// profiles (§3.6).
type fig12Pair struct {
	key   string
	train func() core.Workload
	test  func() core.Workload
}

func fig12Pairs(o Options) []fig12Pair {
	mk := func(name string) *graphgen.Graph {
		d, _ := graphgen.ByName(name)
		return d.Make()
	}
	mkBFS := func(name string) core.Workload {
		g := mk(name)
		return workloads.NewBFS("BFS", g, workloads.TopDegreeVertices(g, 1)[0])
	}
	mkDFS := func(g *graphgen.Graph) core.Workload {
		return workloads.NewDFS("DFS", g, workloads.TopDegreeVertices(g, 1)[0])
	}
	pairs := []fig12Pair{
		{
			key:   "BFS",
			train: func() core.Workload { return mkBFS("WG") },
			test:  func() core.Workload { return mkBFS("WB") },
		},
		{
			key:   "DFS",
			train: func() core.Workload { return mkDFS(mk("P2P")) },
			test:  func() core.Workload { return mkDFS(graphgen.Uniform("P2P-t", 80_000, 2, 2102)) },
		},
		{
			key:   "PR",
			train: func() core.Workload { return workloads.NewPageRank("PR", mk("WN"), 2) },
			test:  func() core.Workload { return workloads.NewPageRank("PR", mk("WS"), 2) },
		},
		{
			key:   "SSSP",
			train: func() core.Workload { return workloads.NewSSSP("SSSP", graphgen.Uniform("P2P-s", 32_000, 2, 1102), 1) },
			test:  func() core.Workload { return workloads.NewSSSP("SSSP", graphgen.Uniform("P2P-s2", 32_000, 2, 2202), 1) },
		},
	}
	if o.Quick {
		return pairs[:2]
	}
	return pairs
}

// Fig12 runs the experiment: one job per pair. Within a pair the train
// input's profiling run and the test input's profiling run (which is
// also its baseline) are independent, each on its own workload instance;
// the same-input and cross-input evaluations fan out once the plans
// exist.
func Fig12(o Options) (*Fig12Result, error) {
	cfg := core.DefaultConfig()
	pairs := fig12Pairs(o)
	rows, err := runner.Map(len(pairs), func(i int) (Fig12Row, error) {
		p := pairs[i]
		var trainPlans, testPlans []analysis.Plan
		var base *core.Result
		err := runner.Run(2, func(j int) error {
			if j == 0 {
				_, plans, err := core.ProfileAndPlan(p.train(), cfg)
				if err != nil {
					return fmt.Errorf("fig12 %s train profile: %w", p.key, err)
				}
				trainPlans = plans
				return nil
			}
			r, plans, err := core.BaselineAndPlans(p.test(), cfg)
			if err != nil {
				return fmt.Errorf("fig12 %s test profile: %w", p.key, err)
			}
			base, testPlans = r, plans
			return nil
		})
		if err != nil {
			return Fig12Row{}, err
		}
		// "TRAIN-DATA": profile and evaluation on the same (test) input;
		// "TEST-DATA": plans from the train input applied to the test input.
		sps, err := runner.Map(2, func(j int) (float64, error) {
			plans, label := testPlans, "same"
			if j == 1 {
				plans, label = trainPlans, "cross"
			}
			r, err := core.RunWithPlans(p.test(), plans, cfg)
			if err != nil {
				return 0, fmt.Errorf("fig12 %s %s-input: %w", p.key, label, err)
			}
			return r.Speedup(base), nil
		})
		if err != nil {
			return Fig12Row{}, err
		}
		return Fig12Row{Key: p.key, TrainSpeedup: sps[0], TestSpeedup: sps[1]}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Rows: rows}
	var trains, tests []float64
	for _, row := range rows {
		trains = append(trains, row.TrainSpeedup)
		tests = append(tests, row.TestSpeedup)
	}
	res.TrainGeoMean = core.GeoMean(trains)
	res.TestGeoMean = core.GeoMean(tests)
	return res, nil
}

// String renders the figure as a table.
func (f *Fig12Result) String() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Key,
			fmt.Sprintf("%.2fx", r.TrainSpeedup),
			fmt.Sprintf("%.2fx", r.TestSpeedup),
		})
	}
	rows = append(rows, []string{"geomean",
		fmt.Sprintf("%.2fx", f.TrainGeoMean),
		fmt.Sprintf("%.2fx", f.TestGeoMean)})
	return "Figure 12: train-input vs. test-input plans (speedup on the test input)\n" +
		table([]string{"app", "same-input plans", "cross-input plans"}, rows)
}
