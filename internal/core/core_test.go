package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/mem"
	"aptget/internal/obs"
	"aptget/internal/runner"
)

// microWorkload is a minimal Workload: the nested indirect kernel with a
// native Go reference.
type microWorkload struct {
	outer, inner, table int64
	seed                int64

	bArr, tArr, out ir.Array
}

func (m *microWorkload) Name() string { return "micro" }

func (m *microWorkload) Build() (*ir.Program, error) {
	b := ir.NewBuilder("micro")
	m.bArr = b.Alloc("B", m.outer*m.inner, 8)
	m.tArr = b.Alloc("T", m.table, 8)
	m.out = b.Alloc("out", 1, 8)
	zero := b.Const(0)
	b.Loop("i", zero, b.Const(m.outer), 1, func(i ir.Value) {
		base := b.Mul(i, b.Const(m.inner))
		b.Loop("j", zero, b.Const(m.inner), 1, func(j ir.Value) {
			idx := b.LoadElem(m.bArr, b.Add(base, j))
			v := b.LoadElem(m.tArr, idx)
			acc := b.LoadElem(m.out, zero)
			b.StoreElem(m.out, zero, b.Add(acc, v))
		})
	})
	return b.Finish(), nil
}

func (m *microWorkload) data() ([]int64, []int64) {
	rng := rand.New(rand.NewSource(m.seed))
	bs := make([]int64, m.outer*m.inner)
	ts := make([]int64, m.table)
	for i := range bs {
		bs[i] = rng.Int63n(m.table)
	}
	for i := range ts {
		ts[i] = int64(i % 17)
	}
	return bs, ts
}

func (m *microWorkload) InitMem(a *mem.Arena) {
	bs, ts := m.data()
	for i, v := range bs {
		a.Write(m.bArr.Addr(int64(i)), v, 8)
	}
	for i, v := range ts {
		a.Write(m.tArr.Addr(int64(i)), v, 8)
	}
}

func (m *microWorkload) Verify(a *mem.Arena) error {
	bs, ts := m.data()
	var want int64
	for _, idx := range bs {
		want += ts[idx]
	}
	if got := a.Read(m.out.Addr(0), 8); got != want {
		return fmt.Errorf("sum = %d, want %d", got, want)
	}
	return nil
}

func newMicro(outer, inner int64) *microWorkload {
	return &microWorkload{outer: outer, inner: inner, table: 1 << 18, seed: 21}
}

func TestCompareThreeWay(t *testing.T) {
	w := newMicro(4096, 4)
	cmp, err := Compare(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Base.Variant != "baseline" || cmp.Static.Variant != "ainsworth-jones" ||
		cmp.AptGet.Variant != "apt-get" {
		t.Fatal("variant labels wrong")
	}
	// The paper's headline shape: APT-GET ≥ static on a small-trip
	// nested kernel (static is stuck in the inner loop with distance 32).
	sApt, sStatic := cmp.AptGetSpeedup(), cmp.StaticSpeedup()
	if sApt < 1.2 {
		t.Fatalf("APT-GET speedup %.2fx too small", sApt)
	}
	if sApt <= sStatic {
		t.Fatalf("APT-GET (%.2fx) should beat static (%.2fx) on trip-4 loops", sApt, sStatic)
	}
	if cmp.AptGet.Report == nil || cmp.AptGet.Report.Injected == 0 {
		t.Fatal("apt-get should have injected slices")
	}
	if len(cmp.AptGet.Plans) == 0 {
		t.Fatal("plans missing from result")
	}
}

// countingWorkload counts the simulations run on a workload: every run
// seeds memory once (InitMem) and every verified run checks once
// (Verify). Compare calls them from two goroutines.
type countingWorkload struct {
	*microWorkload
	inits, verifies atomic.Int64
}

func (c *countingWorkload) InitMem(a *mem.Arena) {
	c.inits.Add(1)
	c.microWorkload.InitMem(a)
}

func (c *countingWorkload) Verify(a *mem.Arena) error {
	c.verifies.Add(1)
	return c.microWorkload.Verify(a)
}

// TestCompareSimulatesThreeTimes: the profiling run is the baseline run,
// so a comparison simulates three builds (baseline, Ainsworth & Jones,
// APT-GET), each verified once — not a fourth, unverified profiling run
// — at any runner width, with the same counters.
func TestCompareSimulatesThreeTimes(t *testing.T) {
	var want *Comparison
	for _, workers := range []int{2, 1} {
		prev := runner.SetMaxWorkers(workers)
		w := &countingWorkload{microWorkload: newMicro(512, 4)}
		cmp, err := Compare(w, DefaultConfig())
		runner.SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if n, v := w.inits.Load(), w.verifies.Load(); n != 3 || v != 3 {
			t.Fatalf("workers=%d: %d simulations and %d verifications, want 3 and 3", workers, n, v)
		}
		if want == nil {
			want = cmp
			continue
		}
		for i, r := range []*Result{cmp.Base, cmp.Static, cmp.AptGet} {
			w := []*Result{want.Base, want.Static, want.AptGet}[i]
			if r.Variant != w.Variant || r.Counters != w.Counters {
				t.Fatalf("%s counters differ between runner widths", r.Variant)
			}
		}
	}
}

// TestInstructionLimitReachesEveryRun: cfg.MaxInstructions bounds the
// profiling run too, in ProfileAndPlan and in Compare's shared
// baseline run.
func TestInstructionLimitReachesEveryRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 50
	if _, _, err := ProfileAndPlan(newMicro(64, 4), cfg); !errors.Is(err, cpu.ErrInstructionLimit) {
		t.Fatalf("ProfileAndPlan: want ErrInstructionLimit, got %v", err)
	}
	if _, _, err := BaselineAndPlans(newMicro(64, 4), cfg); !errors.Is(err, cpu.ErrInstructionLimit) {
		t.Fatalf("BaselineAndPlans: want ErrInstructionLimit, got %v", err)
	}
	if _, err := Compare(newMicro(64, 4), cfg); !errors.Is(err, cpu.ErrInstructionLimit) {
		t.Fatalf("Compare: want ErrInstructionLimit, got %v", err)
	}
}

func TestVerificationCatchesBadResults(t *testing.T) {
	w := newMicro(8, 8)
	w.table = 1 << 10
	bad := &brokenWorkload{w}
	if _, err := RunBaseline(bad, DefaultConfig()); err == nil {
		t.Fatal("verification should fail for the broken workload")
	}
}

// brokenWorkload corrupts Verify to prove the pipeline checks results.
type brokenWorkload struct{ *microWorkload }

func (b *brokenWorkload) Verify(*mem.Arena) error {
	return fmt.Errorf("intentionally broken")
}

func TestRunWithPlansCrossInput(t *testing.T) {
	// Figure 12's mechanism: plans from a train input applied to a test
	// input of the same program structure.
	train := newMicro(4096, 4)
	test := newMicro(4096, 4)
	test.seed = 99 // different data

	cfg := DefaultConfig()
	_, plans, err := ProfileAndPlan(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	baseTest, err := RunBaseline(test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	optTest, err := RunWithPlans(test, plans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp := optTest.Speedup(baseTest); sp < 1.2 {
		t.Fatalf("train-plans should transfer to test input, got %.2fx", sp)
	}
}

// TestPipelineProvenanceExplainsDecisions checks that RunPipeline
// attaches one provenance record per plan carrying the Equation (1)/(2)
// inputs, and that the recorded decision is re-derivable from them.
func TestPipelineProvenanceExplainsDecisions(t *testing.T) {
	w := newMicro(4096, 4)
	res, err := RunPipeline(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	if len(res.Provenance) != len(res.Plans) {
		t.Fatalf("provenance records = %d, want one per plan (%d)",
			len(res.Provenance), len(res.Plans))
	}
	for i, rec := range res.Provenance {
		if rec.LoadPC != res.Plans[i].LoadPC {
			t.Fatalf("record %d is for PC %d, plan has %d", i, rec.LoadPC, res.Plans[i].LoadPC)
		}
		if rec.Distance < 1 {
			t.Fatalf("record %d: distance %d < 1", i, rec.Distance)
		}
		if rec.Site != "inner" && rec.Site != "outer" {
			t.Fatalf("record %d: bad site %q", i, rec.Site)
		}
		if rec.K <= 0 {
			t.Fatalf("record %d: Equation (2) factor K missing", i)
		}
		if rec.Fallback != "" {
			continue // fallback plans legitimately lack model inputs
		}
		if rec.LatencySamples == 0 || len(rec.PeaksInner) == 0 {
			t.Fatalf("record %d: model inputs missing without a fallback: %+v", i, rec)
		}
		if rec.IC <= 0 || rec.MC <= 0 {
			t.Fatalf("record %d: IC/MC not recorded: %+v", i, rec)
		}
		switch rec.Site {
		case "inner":
			// Equation (1): distance = ceil(MC/IC), modulo the
			// [1, MaxDistance] clamp and the non-affine overhead solve.
			want := int64(math.Ceil(rec.MC / rec.IC))
			if want < 1 {
				want = 1
			}
			if rec.Distance > want {
				t.Fatalf("record %d: inner distance %d exceeds ceil(%.0f/%.0f)=%d",
					i, rec.Distance, rec.MC, rec.IC, want)
			}
		case "outer":
			// Equation (2): outer injection is chosen precisely when the
			// trip count cannot cover K × inner distance.
			if rec.AvgTrip >= float64(rec.K)*float64(rec.InnerDistance) {
				t.Fatalf("record %d: outer site but trip %.1f covers K(%d)×innerD(%d)",
					i, rec.AvgTrip, rec.K, rec.InnerDistance)
			}
			if rec.Distance != rec.OuterDistance {
				t.Fatalf("record %d: outer site distance %d ≠ recorded outer distance %d",
					i, rec.Distance, rec.OuterDistance)
			}
		}
	}
}

// TestPipelineSpansRecorded runs the full pipeline with the obs registry
// enabled and checks one span per stage lands in the snapshot, in
// pipeline order, carrying the stage's headline counters.
func TestPipelineSpansRecorded(t *testing.T) {
	obs.Enable()
	obs.Reset()
	defer obs.Disable()

	w := newMicro(256, 4)
	res, err := RunPipeline(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	rep := obs.Snapshot()
	byStage := map[string]obs.Record{}
	var order []string
	for _, r := range rep.Records {
		if r.Scope == "micro/apt-get" {
			byStage[r.Stage] = r
			order = append(order, r.Stage)
		}
	}
	wantOrder := []string{obs.StageProfile, obs.StageAnalysis, obs.StageInject, obs.StageExecute}
	if len(order) != len(wantOrder) {
		t.Fatalf("stages recorded for micro/apt-get: %v, want %v", order, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("stage order %v, want %v", order, wantOrder)
		}
	}
	if byStage[obs.StageProfile].Counters["lbr_samples"] == 0 {
		t.Fatalf("profile span missing lbr_samples: %+v", byStage[obs.StageProfile])
	}
	an := byStage[obs.StageAnalysis]
	if an.Counters["plans"] != int64(len(res.Plans)) {
		t.Fatalf("analysis span plans = %d, result has %d", an.Counters["plans"], len(res.Plans))
	}
	if len(an.Plans) != len(res.Plans) {
		t.Fatalf("analysis span carries %d plan records, want %d", len(an.Plans), len(res.Plans))
	}
	ex := byStage[obs.StageExecute]
	if ex.Counters["cycles"] == 0 || ex.Counters["instructions"] == 0 {
		t.Fatalf("execute span missing PMU counters: %+v", ex.Counters)
	}
	if ex.Metrics["ipc"] <= 0 {
		t.Fatalf("execute span missing ipc metric: %+v", ex.Metrics)
	}
}

// TestPipelineProvenanceWithoutObs checks provenance is filled even when
// the registry is disabled (the default for experiment runs).
func TestPipelineProvenanceWithoutObs(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("registry unexpectedly enabled")
	}
	res, err := RunPipeline(newMicro(256, 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Provenance) == 0 || len(res.Provenance) != len(res.Plans) {
		t.Fatalf("provenance should not depend on the obs registry: %d records, %d plans",
			len(res.Provenance), len(res.Plans))
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := GeoMean([]float64{3}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("geomean(3) = %v", g)
	}
	// A sweep-sized slice of large ratios: the naive product overflows
	// float64 after ~51 elements of 1e6 and reports +Inf.
	big := make([]float64, 400)
	for i := range big {
		big[i] = 1e6
	}
	if g := GeoMean(big); math.IsInf(g, 1) || math.Abs(g-1e6) > 1e-3 {
		t.Fatalf("geomean of 400 x 1e6 = %v, want 1e6", g)
	}
	// And the mirror case: many small ratios underflow the product to 0.
	small := make([]float64, 400)
	for i := range small {
		small[i] = 1e-6
	}
	if g := GeoMean(small); g == 0 || math.Abs(g-1e-6) > 1e-15 {
		t.Fatalf("geomean of 400 x 1e-6 = %v, want 1e-6", g)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var cfg Config
	cfg.Fill()
	if cfg.Machine.Name == "" {
		t.Fatal("machine default missing")
	}
	if cfg.Analysis.DRAMLatency != float64(cfg.Machine.DRAMLatency) {
		t.Fatal("analysis DRAM latency should track the machine config")
	}
}

func TestBaselineDeterministicAcrossCalls(t *testing.T) {
	w := newMicro(64, 16)
	cfg := DefaultConfig()
	r1, err := RunBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counters.Cycles != r2.Counters.Cycles ||
		r1.Counters.Instructions != r2.Counters.Instructions {
		t.Fatal("pipeline runs must be deterministic")
	}
}
