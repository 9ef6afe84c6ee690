package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/passes"
	"aptget/internal/pmu"
	"aptget/internal/profile"
	"aptget/internal/service"
	"aptget/internal/workloads"
)

// minPasses is the fewest passes over the app set a window holds.
const minPasses = 2

// reproApp is one reproduce app with its dataset already generated.
type reproApp struct {
	key string
	w   core.Workload
}

// appResult is what one comparison of an app must reproduce exactly on
// every pass.
type appResult struct {
	base, static, apt pmu.Counters
}

// reproduceSetup generates every app's dataset and loads the plan golden.
func reproduceSetup(in inputs, tr *tracer) ([]reproApp, map[string][]string, error) {
	root := tr.begin(0, -1, "setup")
	defer tr.end(root)
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return nil, nil, err
	}
	apps := make([]reproApp, 0, len(in.Apps))
	for _, key := range in.Apps {
		e, ok := workloads.ByKey(key)
		if !ok {
			return nil, nil, fmt.Errorf("unknown app %q", key)
		}
		var w core.Workload
		tr.do(0, root, "workloads.new", func() error { w = e.New(); return nil })
		apps = append(apps, reproApp{key: key, w: w})
	}
	runtime.GC()
	return apps, golden, nil
}

// checkExact records an app's first comparison and fails any later one
// whose counters differ: the simulator is deterministic.
func checkExact(seen map[string]appResult, key string, r appResult) error {
	if first, ok := seen[key]; ok {
		if first != r {
			return fmt.Errorf("%s: counters differ between passes", key)
		}
		return nil
	}
	seen[key] = r
	return nil
}

func runReproduce(in inputs, opt options) (*report, error) {
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rep := &report{ref: newReference()}
	rep.ref.sample()
	var (
		apps   []reproApp
		golden map[string][]string
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if apps, golden, err = reproduceSetup(in, tr); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		rep.ref.sample()
	}

	cfg := core.DefaultConfig()
	seen := map[string]appResult{}
	for p := 0; ; p++ {
		for _, i := range in.Order[p%len(in.Order)] {
			a := apps[i]
			t0 := time.Now()
			c, err := core.Compare(a.w, cfg)
			ms := msSince(t0)
			rep.windowS += ms / 1e3
			rep.ref.sample()
			if err != nil {
				rep.fail(true, err)
				continue
			}
			rep.latMs = append(rep.latMs, ms)
			rep.groups = append(rep.groups, p)
			r := appResult{c.Base.Counters, c.Static.Counters, c.AptGet.Counters}
			if err := checkGolden(a.key, goldenLines(a.key, c.AptGet.Plans), golden); err != nil {
				rep.fail(true, err)
				continue
			}
			if err := checkExact(seen, a.key, r); err != nil {
				rep.fail(true, err)
				continue
			}
			rep.ok()
			// The profiling run simulates the baseline build once more.
			rep.simInstr += 2*r.base.Instructions + r.static.Instructions + r.apt.Instructions
		}
		// One goroutine runs the ops back to back, so the window is their
		// summed time. At least minPasses passes run, so each app has more
		// than one sample and the heap has reached its steady size.
		if rep.windowS >= opt.seconds && p+1 >= minPasses {
			break
		}
	}
	rep.simS = rep.windowS
	rep.rssMB = peakRSSMB()
	for _, a := range apps {
		if r, ok := seen[a.key]; ok {
			rep.speedups = append(rep.speedups, r.apt.Speedup(&r.base))
			rep.note("app %-5s speedup %.4fx (A&J %.4fx) mpki %.3f -> %.3f",
				a.key, r.apt.Speedup(&r.base), r.static.Speedup(&r.base), r.base.MPKI(), r.apt.MPKI())
		}
	}
	rep.note("setup_s per set-up: %.3f", rep.setupS)
	rep.note("untraced: %s", latencySummary(rep.latMs, rep.groups, rep.windowS))

	if opt.trace {
		if err := reproduceTraced(in, opt, tr, apps, golden, seen, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedCmp is one traced comparison's outputs.
type tracedCmp struct {
	appResult
	plans       []analysis.Plan
	prof        *profile.Profile
	instrsAdded int
}

// reproduceTraced repeats the window calling, in core.Compare's order,
// the stages Compare is made of, each inside a span.
func reproduceTraced(in inputs, opt options, tr *tracer, apps []reproApp,
	golden map[string][]string, seen map[string]appResult, rep *report) error {

	cfg := core.DefaultConfig()
	service.FillPipeline(&cfg)
	var (
		opMs     []float64
		simInstr uint64
		pass     = map[string]*tracedCmp{} // first traced comparison per app
	)
	start := time.Now()
	op := int64(0)
	for p := 0; ; p++ {
		for _, i := range in.Order[p%len(in.Order)] {
			a := apps[i]
			op++
			t0 := time.Now()
			root := tr.begin(op, -1, rootOp)
			tc, err := tracedCompare(tr, op, root, a.w, cfg)
			tr.end(root)
			ms := msSince(t0)
			if err == nil {
				err = checkGolden(a.key, goldenLines(a.key, tc.plans), golden)
			}
			if err == nil {
				// The traced stages must reproduce Compare exactly.
				err = checkExact(seen, a.key, tc.appResult)
			}
			if err != nil {
				rep.fail(true, fmt.Errorf("traced: %w", err))
				continue
			}
			rep.ok()
			opMs = append(opMs, ms)
			simInstr += tc.base.Instructions + tc.static.Instructions + tc.apt.Instructions
			if _, ok := pass[a.key]; !ok {
				pass[a.key] = tc
			}
		}
		if time.Since(start).Seconds() >= opt.seconds {
			break
		}
	}
	rep.note("traced: %s", latencySummary(opMs, nil, time.Since(start).Seconds()))

	spans := tr.snapshot()
	self := selfByName(spans)
	med := func(name string) float64 { return median(self[name]) }
	L := map[string]float64{
		"cpu.run_ms.baseline": med("cpu.run.baseline"),
		"cpu.run_ms.static":   med("cpu.run.static"),
		"cpu.run_ms.aptget":   med("cpu.run.aptget"),
		"profile.collect_ms":  med("profile.collect"),
		"workloads.new_ms":    med("workloads.new"),
		"ir.build_ms":         med("ir.build"),
		"workloads.verify_ms": med("workloads.verify"),
		"analysis.analyze_ms": med("analysis.analyze"),
		"passes.aptget_ms":    med("passes.aptget"),
		"passes.static_ms":    med("passes.static"),
	}
	var runMs float64
	for _, n := range []string{"cpu.run.baseline", "cpu.run.static", "cpu.run.aptget"} {
		for _, ms := range self[n] {
			runMs += ms
		}
	}
	if runMs > 0 {
		L["cpu.sim_minstr_per_s"] = float64(simInstr) / 1e6 / (runMs / 1e3)
	}
	// Counts are per pass over the app set, so they repeat exactly
	// however many passes a window holds.
	var mpkiBase, mpkiApt, acc, late []float64
	for _, a := range apps {
		tc := pass[a.key]
		if tc == nil {
			continue
		}
		L["cpu.instructions"] += float64(tc.base.Instructions + tc.static.Instructions + tc.apt.Instructions)
		L["profile.lbr_samples"] += float64(len(tc.prof.Samples))
		L["profile.delinquent_loads"] += float64(len(tc.prof.Loads))
		L["analysis.plans"] += float64(len(tc.plans))
		L["passes.instrs_added"] += float64(tc.instrsAdded)
		mpkiBase = append(mpkiBase, tc.base.MPKI())
		mpkiApt = append(mpkiApt, tc.apt.MPKI())
		acc = append(acc, tc.apt.PrefetchAccuracy())
		late = append(late, tc.apt.LatePrefetchRatio())
	}
	L["mem.llc_mpki.baseline"] = mean(mpkiBase)
	L["mem.llc_mpki.aptget"] = mean(mpkiApt)
	L["mem.prefetch_accuracy"] = mean(acc)
	L["mem.late_prefetch_ratio"] = mean(late)
	traceShares(L, blockingOps(spans), rep, "reproduce")
	rep.layer = L
	return tr.write(traceFile(opt.traceDir, in))
}

// traceShares fills trace.overhead_share and trace.unattributed_share
// and prints the blocking-path budget against the untraced p50.
func traceShares(L map[string]float64, ops []opTime, rep *report, workload string) {
	p50 := median(rep.latMs)
	if p50 <= 0 {
		return
	}
	b := summarize(ops)
	L["trace.overhead_share"] = b.OpMs/p50 - 1
	L["trace.unattributed_share"] = (p50 - b.AttributedMs) / p50
	var sb strings.Builder
	printBudget(&sb, workload, b, p50)
	rep.notes = append(rep.notes, strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")...)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tracedCompare is core.Compare spelled out: baseline, Ainsworth &
// Jones, then APT-GET (profile, analyze, inject, run), each run verified
// against the Go reference.
func tracedCompare(tr *tracer, op int64, root int, w core.Workload, cfg core.Config) (*tracedCmp, error) {
	tc := &tracedCmp{}
	build := func() (*ir.Program, error) {
		var p *ir.Program
		err := tr.do(op, root, "ir.build", func() error {
			var err error
			p, err = w.Build()
			return err
		})
		return p, err
	}

	p, err := build()
	if err != nil {
		return nil, err
	}
	if tc.base, err = tracedExec(tr, op, root, w, p, cfg, "baseline"); err != nil {
		return nil, err
	}

	if p, err = build(); err != nil {
		return nil, err
	}
	var srep *passes.Report
	if err := tr.do(op, root, "passes.static", func() error {
		var err error
		srep, err = passes.AinsworthJones(p, cfg.Static)
		return err
	}); err != nil {
		return nil, err
	}
	if tc.static, err = tracedExec(tr, op, root, w, p, cfg, "static"); err != nil {
		return nil, err
	}

	if p, err = build(); err != nil {
		return nil, err
	}
	if err := tr.do(op, root, "profile.collect", func() error {
		var err error
		tc.prof, err = profile.Collect(p, cfg.Machine, w.InitMem, cfg.Profile)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do(op, root, "analysis.analyze", func() error {
		var err error
		tc.plans, err = analysis.Analyze(p, tc.prof, cfg.Analysis)
		return err
	}); err != nil {
		return nil, err
	}
	if p, err = build(); err != nil {
		return nil, err
	}
	var arep *passes.Report
	if err := tr.do(op, root, "passes.aptget", func() error {
		var err error
		arep, err = passes.AptGet(p, tc.plans, cfg.Inject)
		return err
	}); err != nil {
		return nil, err
	}
	if tc.apt, err = tracedExec(tr, op, root, w, p, cfg, "aptget"); err != nil {
		return nil, err
	}
	tc.instrsAdded = srep.InstrsAdded + arep.InstrsAdded
	return tc, nil
}

// tracedExec runs one build on the simulator and verifies its result,
// as core's execute does.
func tracedExec(tr *tracer, op int64, root int, w core.Workload, p *ir.Program,
	cfg core.Config, variant string) (pmu.Counters, error) {

	var res *cpu.Result
	err := tr.do(op, root, "cpu.run."+variant, func() error {
		var err error
		res, err = cpu.Run(p, cfg.Machine, cpu.Options{
			InitMem: w.InitMem, MaxInstructions: cfg.MaxInstructions,
		})
		return err
	})
	if err != nil {
		if res != nil {
			res.Hier.Release()
		}
		return pmu.Counters{}, fmt.Errorf("%s (%s): %w", w.Name(), variant, err)
	}
	err = tr.do(op, root, "workloads.verify", func() error { return w.Verify(res.Hier.Arena) })
	res.Hier.Release()
	if err != nil {
		return pmu.Counters{}, fmt.Errorf("%s (%s) computed a wrong result: %w", w.Name(), variant, err)
	}
	return res.Counters, nil
}
