package core_test

import (
	"fmt"
	"testing"

	"aptget/internal/core"
	"aptget/internal/profile"
	"aptget/internal/runner"
	"aptget/internal/workloads"
)

// TestProfileRunIsBaselineRun pins the premise Compare rests on: LBR
// and PEBS sampling cost the simulated program nothing, so a profiling
// run's counters equal an unsampled baseline run's, field for field, on
// every registry app. Compare takes its baseline from the profiling run.
func TestProfileRunIsBaselineRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every registry app twice")
	}
	cfg := core.DefaultConfig()
	entries := workloads.Registry()
	err := runner.Run(len(entries), func(i int) error {
		e := entries[i]
		base, err := core.RunBaseline(e.New(), cfg)
		if err != nil {
			return err
		}
		w := e.New()
		p, err := w.Build()
		if err != nil {
			return err
		}
		prof, err := profile.Collect(p, cfg.Machine, w.InitMem, cfg.Profile)
		if err != nil {
			return err
		}
		if got, want := fmt.Sprintf("%+v", prof.Counters), fmt.Sprintf("%+v", base.Counters); got != want {
			return fmt.Errorf("%s: profiling run counters differ from the baseline run's\nprofile  %s\nbaseline %s",
				e.Key, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHotCompare is the Fig. 6 path end to end on one app: build,
// the Ainsworth & Jones chain beside the profiled baseline → analysis →
// APT-GET chain, every run verified. The DFS dataset is generated
// outside the timer.
func BenchmarkHotCompare(b *testing.B) {
	e, ok := workloads.ByKey("DFS")
	if !ok {
		b.Fatal("no DFS workload")
	}
	w := e.New()
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compare(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
