package experiments

import (
	"fmt"
	"strings"

	"aptget/internal/core"
	"aptget/internal/replan"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// ReplanRow is one workload's stale-vs-adaptive comparison.
type ReplanRow struct {
	App             string
	Base            uint64 // baseline cycles, no prefetching
	Stale           uint64 // cycles under the first-phase one-shot plan
	Adaptive        uint64 // cycles under the feedback controller
	StaleSpeedup    float64
	AdaptiveSpeedup float64
	Swaps           int
	SwapCycles      []uint64
	Plans           int // plans active at the end of the adaptive run
}

// ReplanResult is the online re-planning study: plans are trained on
// each workload's first phase only (the Figure 12 train/test split), the
// full phase schedule then runs once with that stale plan frozen and
// once under the feedback controller, which may re-profile and hot-swap
// mid-run. The phase-changing workloads must show the adaptive run
// winning; the stationary control must show zero swaps and identical
// cycles (monitoring is free in simulated time).
type ReplanResult struct {
	Rows []ReplanRow
}

// Replan runs the study over the phased corpus.
func Replan(o Options) (*ReplanResult, error) {
	keys := []string{"phaseSG", "phaseRamp", "phaseFlat"}
	if o.Quick {
		keys = []string{"phaseSG", "phaseFlat"}
	}
	cfg := evalConfig()

	rows, err := runner.Map(len(keys), func(i int) (*ReplanRow, error) {
		e, ok := workloads.ByKey(keys[i])
		if !ok {
			return nil, fmt.Errorf("replan: unknown app %s", keys[i])
		}
		base, err := core.RunBaseline(e.New(), cfg)
		if err != nil {
			return nil, fmt.Errorf("replan %s: %w", keys[i], err)
		}
		train := e.New().(*workloads.Phased).Prefix(1)
		_, plans, err := core.ProfileAndPlan(train, cfg)
		if err != nil {
			return nil, fmt.Errorf("replan %s: train: %w", keys[i], err)
		}
		stale, err := core.RunWithPlans(e.New(), plans, cfg)
		if err != nil {
			return nil, fmt.Errorf("replan %s: stale: %w", keys[i], err)
		}
		ad, err := replan.Run(e.New(), plans, cfg, replan.Options{})
		if err != nil {
			return nil, fmt.Errorf("replan %s: adaptive: %w", keys[i], err)
		}
		return &ReplanRow{
			App:             keys[i],
			Base:            base.Counters.Cycles,
			Stale:           stale.Counters.Cycles,
			Adaptive:        ad.Counters.Cycles,
			StaleSpeedup:    float64(base.Counters.Cycles) / float64(stale.Counters.Cycles),
			AdaptiveSpeedup: float64(base.Counters.Cycles) / float64(ad.Counters.Cycles),
			Swaps:           ad.Swaps,
			SwapCycles:      ad.SwapCycles,
			Plans:           len(ad.Plans),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ReplanResult{}
	for _, r := range rows {
		res.Rows = append(res.Rows, *r)
	}
	return res, nil
}

// String renders the study, one greppable summary line per app (the CI
// smoke job asserts on the swaps=N fields).
func (r *ReplanResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			fmt.Sprintf("%d", row.Base),
			fmt.Sprintf("%d", row.Stale),
			fmt.Sprintf("%d", row.Adaptive),
			fmt.Sprintf("%.2fx", row.StaleSpeedup),
			fmt.Sprintf("%.2fx", row.AdaptiveSpeedup),
			fmt.Sprintf("%d", row.Swaps),
		})
	}
	var b strings.Builder
	b.WriteString("Online re-planning: first-phase plan frozen (stale) vs hot-swapped (adaptive)\n")
	b.WriteString(table([]string{"app", "base cyc", "stale cyc", "adaptive cyc",
		"stale", "adaptive", "swaps"}, rows))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "replan %s: swaps=%d", row.App, row.Swaps)
		if len(row.SwapCycles) > 0 {
			fmt.Fprintf(&b, " at cycles %v", row.SwapCycles)
		}
		fmt.Fprintf(&b, ", %d plan(s) active\n", row.Plans)
	}
	return b.String()
}
