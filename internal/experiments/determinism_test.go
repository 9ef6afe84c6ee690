package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"aptget/internal/core"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// forget empties the run cache, so the next experiment simulates every
// run afresh.
func forget() { runs = new(core.RunCache) }

// TestSerialParallelByteIdentical asserts the core guarantee of the
// parallel run engine: experiment output is byte-identical at any worker
// pool width. fig1 exercises the micro distance sweeps (nested
// series/distance fan-out); fig9 exercises the per-app comparisons (the
// Ainsworth & Jones chain beside the profiled baseline → APT-GET chain)
// and the forced-distance sweep fanned out within each app. The run
// cache is emptied before each width, so both widths simulate every run
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
// on: an app's comparison read through the evaluation's run cache is the
// comparison an uncached core.Compare simulates. Its baseline also
// equals an unsampled, uncached baseline run. Its APT-GET plans, which
// the distance sweep and Figure 10 read after the APT-GET pass has run
// on them, equal BaselineAndPlans' plans before and after a pass: the
// pass leaves its plans unchanged.
func TestReusedRunsMatchFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates each app six more times beside its comparison")
	}
	cfg := core.DefaultConfig()
	entries := apps(quickOpt())
	if e, ok := workloads.ByKey("DFS"); ok {
		entries = append(entries, e)
	}
	defer func(prev *core.RunCache) { runs = prev }(runs)
	forget()
	err := runner.Run(len(entries), func(i int) error {
		e := entries[i]
		// An unsampled baseline enters the empty cache first: a run key
		// that ignored the cpu options would hand it to the comparison's
		// profiling run, which would then have no samples to plan from.
		cachedBase, err := core.RunBaseline(e.New(), evalConfig())
		if err != nil {
			return err
		}
		cached, err := comparison(e)
		if err != nil {
			return err
		}
		fresh, err := core.Compare(e.New(), cfg)
		if err != nil {
			return err
		}
		base, err := core.RunBaseline(e.New(), cfg)
		if err != nil {
			return err
		}
		for _, r := range []struct {
			name          string
			cached, fresh *core.Result
		}{
			{"baseline", cached.Base, fresh.Base},
			{"unsampled baseline", cached.Base, base},
			{"cached unsampled baseline", cachedBase, base},
			{"Ainsworth & Jones", cached.Static, fresh.Static},
			{"APT-GET", cached.AptGet, fresh.AptGet},
		} {
			if got, want := fmt.Sprintf("%+v", r.cached.Counters), fmt.Sprintf("%+v", r.fresh.Counters); got != want {
				return fmt.Errorf("%s: cached %s run differs from a fresh one\ncached %s\nfresh  %s", e.Key, r.name, got, want)
			}
		}
		if !reflect.DeepEqual(cached.AptGet.Plans, fresh.AptGet.Plans) {
			return fmt.Errorf("%s: cached plans differ from a fresh comparison's\ncached %+v\nfresh  %+v", e.Key, cached.AptGet.Plans, fresh.AptGet.Plans)
		}
		_, plans, err := core.BaselineAndPlans(e.New(), cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(cached.AptGet.Plans, plans) {
			return fmt.Errorf("%s: cached plans differ from BaselineAndPlans'\ncached %+v\nfresh  %+v", e.Key, cached.AptGet.Plans, plans)
		}
		// The pass runs before the cache is consulted, so this run costs
		// no simulation yet still passes plans through the APT-GET pass.
		run, err := core.RunWithPlans(e.New(), plans, evalConfig())
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(cached.AptGet.Plans, plans) {
			return fmt.Errorf("%s: plans changed under the APT-GET pass", e.Key)
		}
		if got, want := fmt.Sprintf("%+v", run.Counters), fmt.Sprintf("%+v", cached.AptGet.Counters); got != want {
			return fmt.Errorf("%s: a run of BaselineAndPlans' plans differs from the cached APT-GET run\nrun    %s\ncached %s", e.Key, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
