package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"aptget/internal/core"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// forget empties the shared-run memos, so the next experiment simulates
// its comparisons and distance sweeps afresh.
func forget() {
	for _, m := range []*sync.Map{&comparisons, &sweeps} {
		m.Range(func(k, _ any) bool {
			m.Delete(k)
			return true
		})
	}
}

// TestSerialParallelByteIdentical asserts the core guarantee of the
// parallel run engine: experiment output is byte-identical at any worker
// pool width. fig1 exercises the micro distance sweeps (nested
// series/distance fan-out); fig9 exercises the per-app comparisons (the
// Ainsworth & Jones chain beside the profiled baseline → APT-GET chain)
// and the forced-distance sweep fanned out within each app. The memos
// are emptied before each width, so both widths simulate every run
// rather than the second reading the first one's results.
func TestSerialParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("double (serial + parallel) experiment run is slow in -short mode")
	}
	for _, id := range []string{"fig1", "fig9"} {
		t.Run(id, func(t *testing.T) {
			run := func(width int) string {
				prev := runner.SetMaxWorkers(width)
				defer runner.SetMaxWorkers(prev)
				forget()
				res, err := All()[id](Options{Quick: true})
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				return res.String()
			}
			serial, parallel := run(1), run(4)
			if serial != parallel {
				t.Fatalf("output differs between serial and parallel runs:\n"+
					"--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestReusedRunsMatchFreshRuns holds the premise every shared run rests
// on: an app's memoised comparison is the runs the experiments used to
// simulate for themselves. Its baseline equals an unsampled baseline
// run, its APT-GET plans equal BaselineAndPlans' (before and after the
// APT-GET pass has run on them), and its APT-GET run equals a fresh run
// of those plans.
func TestReusedRunsMatchFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates each app three times beside its comparison")
	}
	cfg := core.DefaultConfig()
	entries := apps(quickOpt())
	if e, ok := workloads.ByKey("DFS"); ok {
		entries = append(entries, e)
	}
	err := runner.Run(len(entries), func(i int) error {
		e := entries[i]
		cmp, err := comparison(e)
		if err != nil {
			return err
		}
		base, err := core.RunBaseline(e.New(), cfg)
		if err != nil {
			return err
		}
		if got, want := fmt.Sprintf("%+v", cmp.Base.Counters), fmt.Sprintf("%+v", base.Counters); got != want {
			return fmt.Errorf("%s: reused baseline differs from a fresh baseline run\nreused %s\nfresh  %s", e.Key, got, want)
		}
		_, plans, err := core.BaselineAndPlans(e.New(), cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(cmp.AptGet.Plans, plans) {
			return fmt.Errorf("%s: reused plans differ from BaselineAndPlans'\nreused %+v\nfresh  %+v", e.Key, cmp.AptGet.Plans, plans)
		}
		run, err := core.RunWithPlans(e.New(), plans, cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(cmp.AptGet.Plans, plans) {
			return fmt.Errorf("%s: plans changed under the APT-GET pass", e.Key)
		}
		if got, want := fmt.Sprintf("%+v", cmp.AptGet.Counters), fmt.Sprintf("%+v", run.Counters); got != want {
			return fmt.Errorf("%s: reused APT-GET run differs from a fresh run of its plans\nreused %s\nfresh  %s", e.Key, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
