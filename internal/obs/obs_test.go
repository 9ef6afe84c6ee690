package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestDisabledRegistryIsNoOp(t *testing.T) {
	Disable()
	Reset()
	sp := Begin("BFS/apt-get", StageProfile)
	if sp != nil {
		t.Fatalf("Begin while disabled = %v, want nil", sp)
	}
	// Every method must be safe on the nil span.
	sp.Add("x", 1)
	sp.Set("y", 2)
	sp.SetAll(map[string]int64{"z": 3})
	sp.SetMetric("ipc", 1.5)
	sp.AddPlan(PlanRecord{})
	sp.Timer("t")()
	sp.End()
	if got := Snapshot(); len(got.Records) != 0 {
		t.Fatalf("disabled registry recorded %d spans", len(got.Records))
	}
}

func TestSpanRecording(t *testing.T) {
	Enable()
	defer Disable()
	Reset()

	sp := Begin("BFS/apt-get", StageAnalysis)
	sp.Add("plans", 2)
	sp.Add("plans", 1)
	sp.Set("dropped", 4)
	sp.SetMetric("ipc", 0.5)
	sp.AddPlan(PlanRecord{LoadPC: 7, Load: "visited[v]", Site: "inner",
		Distance: 22, IC: 10, MC: 220, AvgTrip: 100, K: 5, InnerDistance: 22,
		PeaksInner: []float64{11, 231}, LatencySamples: 512})
	sp.End()

	rep := Snapshot()
	if len(rep.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(rep.Records))
	}
	rec := rep.Records[0]
	if rec.Scope != "BFS/apt-get" || rec.Stage != StageAnalysis {
		t.Fatalf("record identity = %s/%s", rec.Scope, rec.Stage)
	}
	if rec.Counters["plans"] != 3 || rec.Counters["dropped"] != 4 {
		t.Fatalf("counters = %v", rec.Counters)
	}
	if rec.Metrics["ipc"] != 0.5 {
		t.Fatalf("metrics = %v", rec.Metrics)
	}
	if len(rec.Plans) != 1 || rec.Plans[0].Distance != 22 {
		t.Fatalf("plans = %+v", rec.Plans)
	}
}

// TestSnapshotOrdering checks the deterministic (scope, stage-rank, seq)
// report order regardless of span creation interleaving.
func TestSnapshotOrdering(t *testing.T) {
	Enable()
	defer Disable()
	Reset()

	Begin("Z/apt-get", StageExecute).End()
	Begin("A/apt-get", StageInject).End()
	Begin("A/apt-get", StageProfile).End()
	Begin("exp/fig6", StageExperiment).End()
	Begin("A/apt-get", StageAnalysis).End()

	rep := Snapshot()
	var got []string
	for _, r := range rep.Records {
		got = append(got, r.Scope+":"+r.Stage)
	}
	want := []string{
		"A/apt-get:profile", "A/apt-get:analysis", "A/apt-get:inject",
		"Z/apt-get:execute", "exp/fig6:experiment",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestConcurrentSpans exercises the registry from many goroutines, the
// way runner's worker pool drives it (run with -race).
func TestConcurrentSpans(t *testing.T) {
	Enable()
	defer Disable()
	Reset()

	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sp := Begin("app/apt-get", StageExecute)
			for j := 0; j < 100; j++ {
				sp.Add("cycles", 1)
			}
			sp.End()
		}(i)
	}
	wg.Wait()

	rep := Snapshot()
	if len(rep.Records) != n {
		t.Fatalf("got %d records, want %d", len(rep.Records), n)
	}
	for _, r := range rep.Records {
		if r.Counters["cycles"] != 100 {
			t.Fatalf("lost counter updates: %v", r.Counters)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	Enable()
	defer Disable()
	Reset()

	sp := Begin("IS/apt-get", StageProfile)
	sp.Set("lbr_samples", 12)
	sp.End()

	data, err := Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Records) != 1 || back.Records[0].Counters["lbr_samples"] != 12 {
		t.Fatalf("round-tripped report = %+v", back)
	}
}

func TestTextRendering(t *testing.T) {
	Enable()
	defer Disable()
	Reset()

	sp := Begin("BFS/apt-get", StageAnalysis)
	sp.Set("plans", 1)
	sp.AddPlan(PlanRecord{Load: "ids[col[e]]", LoadPC: 9, Site: "outer",
		Distance: 3, IC: 12, MC: 230, AvgTrip: 4.5, K: 5,
		Fallback: "outer loop has no induction variable; inner site kept"})
	sp.End()

	text := Snapshot().Text()
	for _, want := range []string{
		"BFS/apt-get", "analysis", "plans=1",
		"IC=12 MC=230", "site=outer distance=3", "fallback:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace rendering missing %q:\n%s", want, text)
		}
	}
}

// TestSharedSpanConcurrentMutation: many goroutines mutate one
// long-lived span while Snapshot and Counters read it. Run under -race
// this is the regression test for the per-span lock.
func TestSharedSpanConcurrentMutation(t *testing.T) {
	Enable()
	Reset()
	defer Disable()
	sp := Begin("replan/controller", StageReplan)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp.Add("plan_cache_hits", 1)
				sp.SetMetric("inflight", float64(i))
				_ = Snapshot()
				_ = sp.Counters()
			}
		}()
	}
	wg.Wait()
	sp.End()
	if got := sp.Counters()["plan_cache_hits"]; got != 8*200 {
		t.Fatalf("plan_cache_hits = %d, want %d", got, 8*200)
	}
	rep := Snapshot()
	if len(rep.Records) != 1 || rep.Records[0].Stage != StageReplan {
		t.Fatalf("shared span missing from snapshot: %+v", rep.Records)
	}
}
