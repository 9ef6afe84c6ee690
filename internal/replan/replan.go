// Package replan closes the loop the paper leaves open: APT-GET's plan
// is computed once, from one profile, and Equation (1) only holds while
// the profiled phase does. The controller here drives a resumable run
// (cpu.State) in fixed cycle windows, watches the live PMU counters at
// every checkpoint boundary, and when the exposed miss latency degrades
// against the best the current plan has delivered — or the observed
// memory-component latency drifts past the plan's Equation (1)
// provenance — it re-profiles from the run's own recent LBR/PEBS
// window, re-analyzes (in process or via an aptgetd re-ingest), and
// hot-swaps the prefetch slices into the remaining execution.
package replan

import (
	"fmt"

	"aptget/internal/analysis"
	"aptget/internal/core"
	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/lbr"
	"aptget/internal/mem"
	"aptget/internal/obs"
	"aptget/internal/passes"
	"aptget/internal/pebs"
	"aptget/internal/pmu"
	"aptget/internal/profile"
)

// Planner turns a window profile of the live program into fresh plans.
// The program is the one under execution (stable PCs across swaps), so
// an in-process analysis can resolve loads directly.
type Planner interface {
	Plan(p *ir.Program, prof *profile.Profile) ([]analysis.Plan, error)
}

// Options tunes the feedback controller.
type Options struct {
	// Window is the checkpoint interval in cycles (default 100k — the
	// same order as the profiling stage's LBR snapshot period).
	Window uint64
	// MinWindows is the warm-up: no trigger until this many windows have
	// been observed since the start or the last swap (default 2).
	MinWindows int
	// Cooldown is how many windows after a swap the trigger stays
	// disarmed, so a swap's own transient can't cause the next (default 3).
	Cooldown int
	// DegradeFactor fires the trigger when a window's exposed-latency
	// share exceeds the best post-warm-up window since the last swap by
	// this factor (default 1.6). The same factor guards the Equation (1)
	// provenance check: an active plan whose observed memory-component
	// latency exceeds its planned MC by the factor is stale.
	DegradeFactor float64
	// MinExposedShare is the absolute floor: windows whose exposed miss
	// latency is below this share of the window's cycles never trigger,
	// however the relative picture looks (default 0.15).
	MinExposedShare float64
	// ProfileWindows is how many trailing windows feed a re-profile
	// (default 2).
	ProfileWindows int
	// MaxSwaps bounds the number of hot-swaps (default 4).
	MaxSwaps int
	// SamplePeriod is the live run's LBR snapshot interval (default 20k
	// cycles — denser than offline profiling, a window must contain
	// enough snapshots to re-measure the loop).
	SamplePeriod uint64
	// PEBSPeriod samples every Nth LLC-miss load in the live run
	// (default 43).
	PEBSPeriod uint64
	// MinWindowMisses is the minimum number of demand misses a window
	// must expose before its per-miss latency (MCObserved) is trusted
	// for the Equation (1) provenance check — a window with a handful
	// of misses divides a fill-buffer stall tail by almost nothing and
	// reads as an absurd latency (default 32).
	MinWindowMisses uint64

	// Planner computes fresh plans from a window profile; nil uses the
	// in-process analysis.
	Planner Planner

	// Obs, when non-nil, receives the controller's counters: windows,
	// triggers, swaps, and the final plan count.
	Obs *obs.Span
}

func (o *Options) fill() {
	if o.Window == 0 {
		o.Window = 100_000
	}
	if o.MinWindows == 0 {
		o.MinWindows = 2
	}
	if o.Cooldown == 0 {
		o.Cooldown = 3
	}
	if o.DegradeFactor == 0 {
		o.DegradeFactor = 1.6
	}
	if o.MinExposedShare == 0 {
		o.MinExposedShare = 0.15
	}
	if o.ProfileWindows == 0 {
		o.ProfileWindows = 2
	}
	if o.MaxSwaps == 0 {
		o.MaxSwaps = 4
	}
	if o.SamplePeriod == 0 {
		o.SamplePeriod = 20_000
	}
	if o.PEBSPeriod == 0 {
		o.PEBSPeriod = 43
	}
	if o.MinWindowMisses == 0 {
		o.MinWindowMisses = 32
	}
}

// Decision records what the controller saw and did at one checkpoint.
type Decision struct {
	Window       int
	Cycle        uint64
	ExposedShare float64 // DRAM+FB stall share of the window's cycles
	MPKI         float64 // window LLC misses per kilo-instruction
	HitShare     float64 // fill-buffer hits on SW-prefetched lines / demand misses
	MCObserved   float64 // average exposed DRAM latency per miss in the window
	Triggered    bool
	Swapped      bool
	Plans        int    // plans injected by the swap (when Swapped)
	Reason       string // why the trigger fired or the swap was skipped
}

// Result is the outcome of an adaptive run.
type Result struct {
	Counters   pmu.Counters
	Swaps      int
	SwapCycles []uint64
	Decisions  []Decision
	Plans      []analysis.Plan // the plans active when the run retired
}

// windowSnap is the counter state at one checkpoint boundary.
type windowSnap struct {
	cycle   uint64
	instr   uint64
	misses  uint64
	stall   uint64
	fbHitSW uint64
	samples int
	pebs    map[uint64]uint64
	stalls  map[uint64]uint64
}

func snap(cp cpu.Checkpoint, sampler *pebs.Sampler) windowSnap {
	return windowSnap{
		cycle:   cp.Cycle,
		instr:   cp.Instructions,
		misses:  cp.Counters.Mem.OffcoreDemand,
		stall:   cp.Counters.Mem.StallCycles[mem.LevelDRAM] + cp.Counters.Mem.StallCycles[mem.LevelFB],
		fbHitSW: cp.Counters.Mem.FBHitSWPrefetch,
		samples: cp.LBRSamples,
		pebs:    sampler.Counts(),
		stalls:  sampler.Stalls(),
	}
}

// inProcessPlanner runs the paper's analysis on the live program.
type inProcessPlanner struct {
	opt analysis.Options
}

func (ip inProcessPlanner) Plan(p *ir.Program, prof *profile.Profile) ([]analysis.Plan, error) {
	return analysis.Analyze(p, prof, ip.opt)
}

// Run executes the workload adaptively: inject the initial plans (the
// possibly stale one-shot plan; empty is fine), then run in Window-sized
// slices under the feedback controller. The final memory state is
// verified like any other run — a hot-swapped program must still compute
// the right answer.
func Run(w core.Workload, initial []analysis.Plan, cfg core.Config, opt Options) (*Result, error) {
	opt.fill()
	if cfg.Machine.Name == "" {
		cfg.Machine = mem.ConfigScaled()
	}
	if cfg.Analysis.DRAMLatency == 0 {
		cfg.Analysis.DRAMLatency = float64(cfg.Machine.DRAMLatency)
	}
	planner := opt.Planner
	if planner == nil {
		planner = inProcessPlanner{opt: cfg.Analysis}
	}

	p, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("replan: build %s: %w", w.Name(), err)
	}
	n0 := len(p.Func.Instrs)
	if len(initial) > 0 {
		if _, err := passes.AptGet(p, initial, cfg.Inject); err != nil {
			return nil, fmt.Errorf("replan: initial inject on %s: %w", w.Name(), err)
		}
	}
	n1 := len(p.Func.Instrs)

	st, err := cpu.New(p, cfg.Machine, cpu.Options{
		SamplePeriod:    opt.SamplePeriod,
		PEBSPeriod:      opt.PEBSPeriod,
		InitMem:         w.InitMem,
		MaxInstructions: cfg.MaxInstructions,
	})
	if err != nil {
		return nil, fmt.Errorf("replan: %s: %w", w.Name(), err)
	}
	st.MarkSwappable(n0, n1)

	out := &Result{Plans: initial}
	active := initial
	// planMC is the Equation (1) memory-component latency the active
	// plan was computed for; 0 when no plan (provenance check disarmed).
	planMC := plansMC(active)

	history := []windowSnap{snap(st.Checkpoint(), st.Result().PEBS)}
	best := -1.0   // best exposed share since last swap (post-warm-up)
	sinceSwap := 0 // windows since start or last swap
	cooldown := 0
	window := 0

	for {
		done, err := st.Resume(st.Cycle() + opt.Window)
		if err != nil {
			st.Result().Hier.Release()
			return nil, fmt.Errorf("replan: running %s: %w", w.Name(), err)
		}
		cp := st.Checkpoint()
		cur := snap(cp, st.Result().PEBS)
		prev := history[len(history)-1]
		history = append(history, cur)
		window++
		sinceSwap++
		if cooldown > 0 {
			cooldown--
		}

		dCycles := cur.cycle - prev.cycle
		d := Decision{Window: window, Cycle: cur.cycle}
		if dCycles > 0 {
			d.ExposedShare = float64(cur.stall-prev.stall) / float64(dCycles)
		}
		if di := cur.instr - prev.instr; di > 0 {
			d.MPKI = float64(cur.misses-prev.misses) / (float64(di) / 1000)
		}
		if dm := cur.misses - prev.misses; dm > 0 {
			d.HitShare = float64(cur.fbHitSW-prev.fbHitSW) / float64(dm)
			d.MCObserved = float64(cur.stall-prev.stall) / float64(dm)
		}

		if done {
			out.Decisions = append(out.Decisions, d)
			break
		}

		warm := sinceSwap > opt.MinWindows
		if warm && (best < 0 || d.ExposedShare < best) {
			best = d.ExposedShare
		}

		trigger := false
		if warm && cooldown == 0 && out.Swaps < opt.MaxSwaps && d.ExposedShare > opt.MinExposedShare {
			if best >= 0 && d.ExposedShare > best*opt.DegradeFactor {
				trigger = true
				d.Reason = fmt.Sprintf("exposed %.2f > %.2f x best %.2f",
					d.ExposedShare, opt.DegradeFactor, best)
			} else if planMC > 0 && cur.misses-prev.misses >= opt.MinWindowMisses &&
				d.MCObserved > planMC*opt.DegradeFactor {
				// Equation (1) provenance check: the plan's distance was
				// sized for MC cycles of memory latency; the phase now
				// exposes far more per miss, so the plan is stale.
				trigger = true
				d.Reason = fmt.Sprintf("observed MC %.0f > %.2f x planned %.0f",
					d.MCObserved, opt.DegradeFactor, planMC)
			}
		}
		d.Triggered = trigger

		if trigger {
			base := history[maxInt(0, len(history)-1-opt.ProfileWindows)]
			prof := windowProfile(st, base, cur, cfg.Profile, opt)
			plans, perr := planner.Plan(st.Program(), prof)
			switch {
			case perr != nil:
				d.Reason += "; plan failed: " + perr.Error()
			case len(plans) == 0:
				d.Reason += "; no plans for this phase"
				cooldown = opt.Cooldown
			default:
				iopt := cfg.Inject
				iopt.KeepPCs = true
				serr := st.SwapPlan(func(*ir.Func) error {
					_, err := passes.AptGet(st.Program(), plans, iopt)
					return err
				})
				if serr != nil {
					d.Reason += "; swap failed: " + serr.Error()
				} else {
					d.Swapped = true
					d.Plans = len(plans)
					active = plans
					planMC = plansMC(active)
					out.Swaps++
					out.SwapCycles = append(out.SwapCycles, cur.cycle)
					best = -1
					sinceSwap = 0
					cooldown = opt.Cooldown
				}
			}
		}
		out.Decisions = append(out.Decisions, d)
	}

	res := st.Result()
	if err := w.Verify(res.Hier.Arena); err != nil {
		res.Hier.Release()
		return nil, fmt.Errorf("replan: %s computed a wrong result after %d swaps: %w",
			w.Name(), out.Swaps, err)
	}
	res.Hier.Release()
	out.Counters = res.Counters
	out.Plans = active

	if sp := opt.Obs; sp != nil {
		sp.Set("windows", int64(window))
		sp.Set("swaps", int64(out.Swaps))
		var triggers int64
		for _, d := range out.Decisions {
			if d.Triggered {
				triggers++
			}
		}
		sp.Set("triggers", triggers)
		sp.Set("plans_active", int64(len(active)))
		sp.Set("cycles", int64(out.Counters.Cycles))
	}
	return out, nil
}

// windowProfile packages the trailing windows' live samples as a
// profile: LBR snapshots taken since the base checkpoint, PEBS miss and
// stall attribution as count deltas, and then the *same* selection gate
// the offline profiling stage applies — share floor here, score (or
// MPKI-ablation) gate via profile.SelectLoads, so online re-planning
// cannot drift from the offline selection policy.
func windowProfile(st *cpu.State, base, cur windowSnap, popt profile.Options, opt Options) *profile.Profile {
	all := st.Result().LBRSamples
	var samples []lbr.Sample
	if base.samples < len(all) {
		samples = all[base.samples:]
	}

	delta := make(map[uint64]uint64)
	var total uint64
	for pc, n := range cur.pebs {
		if dn := n - base.pebs[pc]; dn > 0 {
			delta[pc] = dn
			total += dn
		}
	}

	minShare := popt.DelinquentShare
	if minShare == 0 {
		minShare = 0.02
	}
	dInstr := cur.instr - base.instr

	var loads []pebs.Load
	for pc, n := range delta {
		share := float64(n) / float64(total)
		if share < minShare {
			continue
		}
		stall := cur.stalls[pc] - base.stalls[pc]
		loads = append(loads, pebs.Load{
			PC: pc, Samples: n, Share: share,
			StallCycles: stall,
			MeanStall:   float64(stall) / float64(n),
		})
	}
	// The live sampler's period, not the offline default, scales the
	// per-window estimates.
	popt.PEBSPeriod = opt.PEBSPeriod
	loads = profile.SelectLoads(loads, dInstr, popt)

	ctr := pmu.Counters{
		Instructions: dInstr,
		Cycles:       cur.cycle - base.cycle,
	}
	return &profile.Profile{Samples: samples, Loads: loads, Counters: ctr}
}

// plansMC returns the largest planned memory-component latency among the
// active plans (0 when no plan carries one).
func plansMC(plans []analysis.Plan) float64 {
	var mc float64
	for i := range plans {
		if plans[i].Inner.MC > mc {
			mc = plans[i].Inner.MC
		}
	}
	return mc
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
