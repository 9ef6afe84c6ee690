package analysis_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/ir"
	"aptget/internal/obs"
	"aptget/internal/profile"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

// window is one profiled build: the program a daemon analyses and the
// profile a client sent for it.
type window struct {
	prog *ir.Program
	prof *profile.Profile
	opt  analysis.Options
}

var (
	g500Once sync.Once
	g500     window
	g500Err  error
)

// g500Window profiles G500 once per test binary at LBR period 99 000
// (serve-cold's first G500 window), with the daemon's analysis options.
func g500Window(tb testing.TB) window {
	tb.Helper()
	g500Once.Do(func() {
		cfg := core.DefaultConfig()
		e, _ := workloads.ByKey("G500")
		w := e.New()
		prog, err := w.Build()
		if err != nil {
			g500Err = err
			return
		}
		popt := cfg.Profile
		popt.SamplePeriod = 99_000
		prof, err := profile.Collect(prog, cfg.Machine, w.InitMem, popt)
		if err != nil {
			g500Err = err
			return
		}
		aopt := cfg.Analysis
		aopt.DRAMLatency = float64(cfg.Machine.DRAMLatency)
		g500 = window{prog: prog, prof: prof, opt: aopt}
	})
	if g500Err != nil {
		tb.Fatal(g500Err)
	}
	return g500
}

// TestLoopTimingMemo checks the per-Analyze loop-timing memo on G500,
// whose six delinquent loads share loops: every plan's timings equal a
// direct measurement, no two plans share a slice, and the span counts
// exactly the measurements the memo saved.
func TestLoopTimingMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles G500")
	}
	win := g500Window(t)
	opt := win.opt
	opt.Obs = &obs.Span{Scope: "G500/memo", Stage: obs.StageAnalysis}
	plans, err := analysis.Analyze(win.prog, win.prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 6 {
		t.Fatalf("%d plans, want G500's 6", len(plans))
	}
	// Six inner measurements plus four outer-site ones, over four
	// distinct loops (BFS's level body for each frontier parity, each an
	// edge loop nested in a frontier loop; the edge loops' outer timings
	// are the frontier loops' inner timings): ten measureLoop calls, six
	// served by the memo.
	if got := opt.Obs.Counters()["loop_timing_reused"]; got != 6 {
		t.Errorf("loop_timing_reused = %d, want 6", got)
	}
	// The memo dies with the call: a second analysis measures the same
	// four loops again instead of finding them cached.
	again := win.opt
	again.Obs = &obs.Span{Scope: "G500/memo-again", Stage: obs.StageAnalysis}
	before, err := analysis.Analyze(win.prog, win.prof, again)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Obs.Counters()["loop_timing_reused"]; got != 6 {
		t.Errorf("second Analyze: loop_timing_reused = %d, want 6", got)
	}

	f := win.prog.Func
	forest := ir.AnalyzeLoops(f)
	latches := func(l *ir.Loop) []uint64 {
		if l == nil {
			return nil
		}
		return analysis.LatchPCs(f, l)
	}
	for i, p := range plans {
		loop := forest.InnermostFor(f.Instr(p.Load).Block)
		want := analysis.MeasureLoop(latches(loop), latches(loop.Parent), win.prof.Samples, win.opt)
		if !reflect.DeepEqual(p.Inner, want) {
			t.Errorf("plan %d (%s): memoized inner timing differs from a direct measurement", i, p.LoadName)
		}
		if p.Outer != nil {
			want := analysis.MeasureLoop(latches(loop.Parent), latches(loop.Parent.Parent), win.prof.Samples, win.opt)
			if !reflect.DeepEqual(*p.Outer, want) {
				t.Errorf("plan %d (%s): memoized outer timing differs from a direct measurement", i, p.LoadName)
			}
		}
	}

	// Writing into one plan's timings must leave every other plan as it
	// was: the memo hands out copies, never its own slices.
	for i := range plans {
		for _, xs := range [][]float64{plans[i].Inner.Latencies, plans[i].Inner.Peaks} {
			for j := range xs {
				xs[j] = -1
			}
		}
		for j := range plans[i].Inner.LatchPCs {
			plans[i].Inner.LatchPCs[j] = 0
		}
		for k := range plans {
			if k != i && !reflect.DeepEqual(plans[k], before[k]) {
				t.Fatalf("writing plan %d's inner timing changed plan %d", i, k)
			}
		}
		plans[i] = before[i]
	}
}

// TestAnalyzeSharedProgram runs two analyses of one profile on one
// shared program concurrently. Analyze must not write to the program or
// keep state between calls: under -race this is the proof that a
// read-only program can be shared between concurrent misses, and both
// analyses must serve the same bytes.
func TestAnalyzeSharedProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles G500")
	}
	win := g500Window(t)
	var out [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans, err := analysis.Analyze(win.prog, win.prof, win.opt)
			errs[i] = err
			out[i] = wire.EncodePlanSet(wire.PlanSetFromAnalysis("G500", plans, win.opt))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatal("concurrent analyses of one program served different plan bytes")
	}
}

// BenchmarkHotAnalyze times the daemon's analysis of one fixed G500
// window (LBR period 99 000); the window is profiled once, outside the
// timer. Tracked by the CI bench gate.
func BenchmarkHotAnalyze(b *testing.B) {
	win := g500Window(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(win.prog, win.prof, win.opt); err != nil {
			b.Fatal(err)
		}
	}
}
