// Package analysis implements APT-GET's analytical model (§3.2–§3.3):
// from LBR samples and a delinquent load PC it derives
//
//   - the loop-iteration latency distribution of the loop containing the
//     load, whose CWT peaks separate the instruction component (lowest
//     peak, IC_latency) from the memory component (highest peak − lowest
//     peak, MC_latency);
//   - the optimal prefetch distance from Equation (1):
//     IC_latency × distance = MC_latency;
//   - the average inner-loop trip count, and from Equation (2) the
//     prefetch injection site (inner vs. outer loop).
//
// Loop branch PCs are resolved through the IR (the paper resolves PCs via
// AutoFDO debug info); all *timing* comes exclusively from the LBR
// samples, never from the simulator's internals.
package analysis

import (
	"fmt"
	"math"
	"slices"

	"aptget/internal/ir"
	"aptget/internal/lbr"
	"aptget/internal/obs"
	"aptget/internal/peaks"
	"aptget/internal/pebs"
	"aptget/internal/profile"
)

// Site selects where the prefetch slice is injected.
type Site uint8

// Injection sites.
const (
	SiteInner Site = iota
	SiteOuter
)

func (s Site) String() string {
	if s == SiteOuter {
		return "outer"
	}
	return "inner"
}

// Options tunes the analysis. Zero values select defaults.
type Options struct {
	BinWidth    float64 // latency histogram bin width in cycles (default 2)
	K           int64   // Equation (2) coverage factor (default 5 → 80% coverage)
	MaxDistance int64   // distance clamp (default 256)
	MinSamples  int     // minimum latency observations to trust peaks (default 16)
	// DRAMLatency is the machine's main-memory latency in cycles
	// (default 220, mem.ConfigScaled). §3.2 step 5 requires *predicting*
	// the iteration latency when the load is served near the core; when
	// the profiled distribution has no all-hit population (every
	// iteration misses somewhere), the lowest peak still contains a
	// cache latency, and the instruction component is recovered as
	// highest_peak − DRAMLatency instead.
	DRAMLatency  float64
	PeakOpts     peaks.Options
	DisableOuter bool // force inner-loop injection (ablation)
	// RawIC disables the §3.2 step-5 instruction-component recovery and
	// uses the lowest latency peak as IC verbatim (ablation).
	RawIC bool
	// Obs, when non-nil, receives the stage's counters and per-plan
	// provenance records (aptbench -report / -trace).
	Obs *obs.Span
}

func (o *Options) fill() {
	if o.BinWidth == 0 {
		o.BinWidth = 2
	}
	if o.K == 0 {
		o.K = 5
	}
	if o.MaxDistance == 0 {
		o.MaxDistance = 256
	}
	if o.MinSamples == 0 {
		o.MinSamples = 16
	}
	if o.DRAMLatency == 0 {
		o.DRAMLatency = 220
	}
}

// LoopTiming is the measured dynamic behaviour of one loop.
type LoopTiming struct {
	LatchPCs  []uint64  // back-edge branch PCs identifying the loop in LBR entries
	Latencies []float64 // per-iteration execution times (cycles)
	Peaks     []float64 // CWT peaks of the latency distribution
	IC        float64   // instruction-component latency (lowest peak)
	MC        float64   // memory-component latency (highest − lowest peak)

	// DroppedNonMonotonic counts consecutive-latch cycle deltas that were
	// discarded because the later entry's cycle stamp was below the
	// earlier one (wrapped or out-of-order snapshot): without the guard a
	// single such pair would yield a ~1.8e19-cycle "latency" from the
	// unsigned subtraction and poison the histogram.
	DroppedNonMonotonic int
	// DroppedBreaker counts deltas discarded because an enclosing loop's
	// latch fired between the two latch occurrences (outer-loop overhead,
	// not an iteration).
	DroppedBreaker int

	// HistClampedOutliers and HistDroppedNonFinite surface the latency
	// histogram's robustness counters: samples clamped into the top bin
	// by the MaxBins range cap, and NaN/±Inf samples dropped outright.
	HistClampedOutliers  int
	HistDroppedNonFinite int
	// DegenerateSpan is true when the latency range hit the histogram
	// bin cap. Peaks of such a histogram carry no signal, so the timing
	// stays empty and the caller takes the §3.6 distance-1 fallback.
	DegenerateSpan bool
}

// Plan is the per-delinquent-load output consumed by the injection pass.
type Plan struct {
	LoadPC   uint64
	LoadName string   // debug label of the load (AutoFDO-style source mapping)
	Load     ir.Value // resolved load instruction in the profiled program
	Distance int64    // Equation (1) prefetch distance (for the chosen site)
	Site     Site

	InnerDistance int64 // Equation (1) on the inner loop
	OuterDistance int64 // Equation (1) on the outer loop (0 if unavailable)

	AvgTrip float64 // average inner-loop trip count from LBR runs

	// SelectionScore and MeanStall carry the 2-D delinquent-load
	// selection provenance: the stall-cycles-per-kilo-instruction score
	// the load was admitted with and its mean exposed latency per
	// sampled miss (zero when the profile predates latency sampling).
	SelectionScore float64
	MeanStall      float64

	Inner LoopTiming
	Outer *LoopTiming // nil when the load's loop has no parent

	Fallback string // non-empty when a §3.6 fallback was applied
}

// Record exports the plan's provenance: the Equation (1) and (2) inputs
// next to the decisions they produced, in the obs report schema. opt
// must be the Options the plan was computed with (for K).
func (p *Plan) Record(opt Options) obs.PlanRecord {
	opt.fill()
	rec := obs.PlanRecord{
		LoadPC:              p.LoadPC,
		Load:                p.LoadName,
		Site:                p.Site.String(),
		Distance:            p.Distance,
		IC:                  p.Inner.IC,
		MC:                  p.Inner.MC,
		AvgTrip:             p.AvgTrip,
		Score:               p.SelectionScore,
		MeanStall:           p.MeanStall,
		K:                   opt.K,
		InnerDistance:       p.InnerDistance,
		OuterDistance:       p.OuterDistance,
		PeaksInner:          append([]float64(nil), p.Inner.Peaks...),
		LatencySamples:      len(p.Inner.Latencies),
		DroppedNonMonotonic: p.Inner.DroppedNonMonotonic,
		Fallback:            p.Fallback,

		HistClampedOutliers:  p.Inner.HistClampedOutliers,
		HistDroppedNonFinite: p.Inner.HistDroppedNonFinite,
		HistDegenerateSpan:   p.Inner.DegenerateSpan,
	}
	if p.Outer != nil {
		rec.PeaksOuter = append([]float64(nil), p.Outer.Peaks...)
		// An outer-site distance is derived from the outer distribution
		// (or predicted as trip × IC_inner); surface the measured outer
		// components when the site decision used them.
		if p.Site == SiteOuter && p.Outer.IC > 0 {
			rec.IC, rec.MC = p.Outer.IC, p.Outer.MC
		}
	}
	return rec
}

// Analyze produces one Plan per delinquent load in the profile.
// The program must be the same build that was profiled (identical PCs).
func Analyze(prog *ir.Program, prof *profile.Profile, opt Options) ([]Plan, error) {
	opt.fill()
	sp := opt.Obs
	f := prog.Func
	forest := ir.AnalyzeLoops(f)
	timings := &loopTimings{samples: prof.Samples, opt: opt, memo: map[string]LoopTiming{}}

	var plans []Plan
	for _, dl := range prof.Loads {
		v := f.FindByPC(dl.PC)
		if v == ir.NoValue || f.Instr(v).Op != ir.OpLoad {
			return nil, fmt.Errorf("analysis: delinquent PC %d is not a load", dl.PC)
		}
		loop := forest.InnermostFor(f.Instr(v).Block)
		if loop == nil {
			// Loads outside loops cannot be prefetched ahead; skip.
			sp.Add("loads_outside_loops", 1)
			continue
		}
		plan := planForLoad(f, timings, prof.Samples, dl, v, loop, opt)
		plans = append(plans, plan)
	}
	sp.Set("delinquent_loads", int64(len(prof.Loads)))
	sp.Set("lbr_samples", int64(len(prof.Samples)))
	sp.Set("plans", int64(len(plans)))
	for i := range plans {
		p := &plans[i]
		sp.Add("latency_samples", int64(len(p.Inner.Latencies)))
		sp.Add("peaks_found", int64(len(p.Inner.Peaks)))
		sp.Add("dropped_non_monotonic", int64(p.Inner.DroppedNonMonotonic))
		sp.Add("dropped_breaker", int64(p.Inner.DroppedBreaker))
		sp.Add("histogram_clamped_outliers", int64(p.Inner.HistClampedOutliers))
		sp.Add("histogram_dropped_nonfinite", int64(p.Inner.HistDroppedNonFinite))
		if p.Inner.DegenerateSpan {
			sp.Add("histogram_degenerate_span", 1)
		}
		if p.Fallback != "" {
			sp.Add("fallbacks", 1)
		}
		sp.AddPlan(p.Record(opt))
	}
	return plans, nil
}

func planForLoad(f *ir.Func, timings *loopTimings, samples []lbr.Sample,
	dl pebs.Load, v ir.Value, loop *ir.Loop, opt Options) Plan {

	plan := Plan{
		LoadPC: dl.PC, LoadName: f.Instr(v).Name, Load: v,
		Site: SiteInner, Distance: 1, InnerDistance: 1,
		SelectionScore: dl.Score, MeanStall: dl.MeanStall,
	}

	innerPCs := latchPCs(f, loop)
	var outerPCs, grandPCs []uint64
	if loop.Parent != nil {
		outerPCs = latchPCs(f, loop.Parent)
		// When the parent loop is itself nested, its own iteration deltas
		// must not span the *grandparent's* latch — the same breaker rule
		// the inner measurement applies one level down.
		if loop.Parent.Parent != nil {
			grandPCs = latchPCs(f, loop.Parent.Parent)
		}
	}

	plan.Inner = timings.measure(innerPCs, outerPCs)
	headerPC := f.Instrs[f.Blocks[loop.Header].Instrs[0]].PC
	runs := tripRuns(innerPCs, outerPCs, headerPC, samples)
	plan.AvgTrip = avgTrip(runs)

	innerMeasurable := len(plan.Inner.Latencies) >= opt.MinSamples &&
		plan.Inner.IC > 0 && plan.Inner.MC > 0
	if !innerMeasurable {
		// The inner distribution carries no memory component. Two cases:
		// either timing was impossible (§3.6: too many branches, too few
		// samples), or the delinquent load misses once per *outer*
		// iteration (e.g. a bucket scan whose whole bucket shares one
		// cache line) so the stall surfaces only in the outer loop's
		// latency distribution. In the latter case Equation 1 applies to
		// the outer loop directly (§3.3).
		if !opt.DisableOuter && loop.Parent != nil &&
			loop.Parent.InductionPhi(f) != ir.NoValue {
			outer := timings.measure(outerPCs, grandPCs)
			if len(outer.Latencies) >= opt.MinSamples && len(outer.Peaks) >= 2 {
				plan.Outer = &outer
				plan.OuterDistance = distanceFromTiming(outer, opt)
				plan.Site = SiteOuter
				plan.Distance = plan.OuterDistance
				plan.Fallback = "inner latency unimodal; distance from outer loop distribution"
				return plan
			}
		}
		if len(plan.Inner.Latencies) < opt.MinSamples || len(plan.Inner.Peaks) == 0 {
			plan.Fallback = "inner loop latency unmeasurable; default distance 1"
		} else {
			plan.Fallback = "latency distribution unimodal; default distance 1"
		}
		return plan
	}

	plan.InnerDistance = distanceFromTiming(plan.Inner, opt)
	if phi := loop.InductionPhi(f); phi != ir.NoValue && !affinePhi(f, loop, phi) {
		// Non-affine recurrence (§3.5, e.g. RandomAccess's xorshift
		// state): advancing the prefetch address by D iterations costs
		// an unrolled update chain of ~c cycles per step, so the
		// effective per-iteration time grows with D. Solving
		// D × (IC + c·D) = MC instead of Equation 1's D × IC = MC keeps
		// the overhead from eating the gain — the paper's §4.8 "future
		// research opportunity" of overhead-conscious injection.
		const c = 4.0
		ic, mc := plan.Inner.IC, plan.Inner.MC
		d := int64(math.Ceil((-ic + math.Sqrt(ic*ic+4*c*mc)) / (2 * c)))
		if d >= 1 && d < plan.InnerDistance {
			plan.InnerDistance = d
		}
	}
	plan.Distance = plan.InnerDistance

	// Equation (2): coverage check. The prologue/epilogue argument of
	// §3.3: an inner loop of trip_count iterations wastes `distance`
	// iterations of coverage, so inner injection covers enough only when
	// trip_count ≥ K × distance.
	if opt.DisableOuter || loop.Parent == nil {
		return plan
	}
	if plan.AvgTrip <= 0 {
		// §3.6: the inner loop overflows the 32-entry LBR, so the outer
		// latency cannot be measured — keep prefetching in the inner
		// loop, which is fine precisely because the trip count is high.
		plan.Fallback = "trip count unmeasurable (LBR overflow); inner site kept"
		return plan
	}
	if plan.AvgTrip >= float64(opt.K)*float64(plan.InnerDistance) {
		return plan // inner coverage is sufficient
	}
	if loop.Parent.InductionPhi(f) == ir.NoValue {
		// Worklist-style outer loops (e.g. DFS's stack loop) have no
		// induction variable to advance: outer injection is structurally
		// impossible, keep the inner site.
		plan.Fallback = "outer loop has no induction variable; inner site kept"
		return plan
	}

	// Outer site selected. The outer latency distribution is recorded
	// for reporting; the distance itself predicts the *post-prefetch*
	// outer iteration time as trip × IC_inner (a baseline outer
	// iteration contains the very stalls prefetching removes, so Eq. 1
	// applied mechanically to the baseline peaks would over-prefetch).
	outer := timings.measure(outerPCs, grandPCs)
	plan.Outer = &outer
	outerIC := plan.AvgTrip * plan.Inner.IC
	if outerIC < 1 {
		outerIC = 1
	}
	od := int64(math.Ceil(plan.Inner.MC / outerIC))
	if od < 1 {
		od = 1
	}
	if od > opt.MaxDistance {
		od = opt.MaxDistance
	}
	plan.OuterDistance = od
	plan.Site = SiteOuter
	plan.Distance = plan.OuterDistance
	return plan
}

// affinePhi reports whether the loop phi advances by a constant step
// (back edge = phi + C) — mirrors the pass's canonical-IV recognition.
func affinePhi(f *ir.Func, loop *ir.Loop, phi ir.Value) bool {
	ins := f.Instr(phi)
	for i, pred := range ins.PhiPreds {
		if !loop.Blocks[pred] {
			continue
		}
		next := f.Instr(ins.Args[i])
		if next.Op != ir.OpAdd {
			return false
		}
		a, b := next.Args[0], next.Args[1]
		return (a == phi && f.Instr(b).Op == ir.OpConst) ||
			(b == phi && f.Instr(a).Op == ir.OpConst)
	}
	return false
}

// latchPCs returns the PCs of the loop's back-edge terminators.
func latchPCs(f *ir.Func, l *ir.Loop) []uint64 {
	var out []uint64
	for _, latch := range l.Latches {
		b := f.Blocks[latch]
		if t := b.Terminator(f); t != ir.NoValue {
			out = append(out, f.Instrs[t].PC)
		}
	}
	slices.Sort(out)
	return out
}

// loopTimings memoizes measureLoop for one Analyze call. Loads in the
// same loop measure the same latch and breaker PCs over the same samples
// and options, so each distinct loop's histogram goes through the CWT
// once. The memo lives only as long as the call: nothing is shared
// between analyses, and Analyze keeps no state in the program.
type loopTimings struct {
	samples []lbr.Sample
	opt     Options
	memo    map[string]LoopTiming
}

// measure returns measureLoop(latch, breakers, ...) with slices the
// caller owns: every plan gets its own LatchPCs, Latencies and Peaks,
// so writing into one plan's timing never reaches another's.
func (t *loopTimings) measure(latch, breakers []uint64) LoopTiming {
	key := fmt.Sprint(latch, breakers)
	lt, ok := t.memo[key]
	if ok {
		t.opt.Obs.Add("loop_timing_reused", 1)
	} else {
		lt = measureLoop(latch, breakers, t.samples, t.opt)
		t.memo[key] = lt
	}
	lt.LatchPCs = slices.Clone(lt.LatchPCs)
	lt.Latencies = slices.Clone(lt.Latencies)
	lt.Peaks = slices.Clone(lt.Peaks)
	return lt
}

func contains(pcs []uint64, pc uint64) bool {
	for _, p := range pcs {
		if p == pc {
			return true
		}
	}
	return false
}

// measureLoop extracts per-iteration latencies for a loop identified by
// its latch PCs: the cycle delta between consecutive occurrences of a
// latch branch within one LBR snapshot (§3.2 step 4). Deltas spanning an
// occurrence of a breaker PC (the enclosing loop's latch) are discarded —
// they include outer-loop overhead, not a loop iteration.
func measureLoop(latch, breakers []uint64, samples []lbr.Sample, opt Options) LoopTiming {
	lt := LoopTiming{LatchPCs: latch}
	for _, s := range samples {
		haveLast := false
		var lastCycle uint64
		brokeSince := false
		for _, e := range s.Entries {
			if contains(breakers, e.From) {
				brokeSince = true
				continue
			}
			if !contains(latch, e.From) {
				continue
			}
			switch {
			case !haveLast:
			case brokeSince:
				lt.DroppedBreaker++
			case e.Cycle < lastCycle:
				// Cycle stamps must be non-decreasing within a snapshot;
				// a wrapped or out-of-order entry would underflow the
				// unsigned delta. Skip the delta and re-anchor on the new
				// stamp.
				lt.DroppedNonMonotonic++
			default:
				lt.Latencies = append(lt.Latencies, float64(e.Cycle-lastCycle))
			}
			haveLast = true
			lastCycle = e.Cycle
			brokeSince = false
		}
	}
	if len(lt.Latencies) == 0 {
		return lt
	}
	h := peaks.NewHistogram(lt.Latencies, opt.BinWidth)
	defer h.Release()
	lt.HistClampedOutliers = h.ClampedOutliers
	lt.HistDroppedNonFinite = h.DroppedNonFinite
	if len(h.Counts) >= peaks.MaxBins {
		lt.DegenerateSpan = true
		return lt
	}
	popt := opt.PeakOpts
	popt.Obs = opt.Obs
	lt.Peaks = h.Peaks(0, popt)
	switch {
	case len(lt.Peaks) >= 2:
		highest := lt.Peaks[len(lt.Peaks)-1]
		lt.IC = lt.Peaks[0]
		// §3.2 step 5: if even the fastest iterations were served by a
		// far cache (no all-hit population), the true instruction
		// component is the DRAM-served iteration time minus the DRAM
		// latency. Take whichever estimate is smaller — for loads with
		// an all-hit population both coincide.
		if cand := highest - opt.DRAMLatency; !opt.RawIC && cand >= 1 && cand < lt.IC {
			lt.IC = cand
		}
		lt.MC = highest - lt.IC
	case len(lt.Peaks) == 1 && !opt.RawIC:
		// A unimodal distribution *above* the DRAM latency means every
		// iteration misses (RandomAccess-style streams): the instruction
		// component is the residue over the DRAM latency and Equation 1
		// still applies. A unimodal distribution below it carries no
		// memory component at all (IC/MC stay zero and the caller falls
		// back).
		if cand := lt.Peaks[0] - opt.DRAMLatency; cand >= 1 {
			lt.IC = cand
			lt.MC = lt.Peaks[0] - cand
		}
	}
	return lt
}

// distanceFromTiming applies Equation (1): distance = ceil(MC / IC),
// clamped to [1, MaxDistance].
func distanceFromTiming(t LoopTiming, opt Options) int64 {
	if t.IC <= 0 {
		return 1
	}
	d := int64(math.Ceil(t.MC / t.IC))
	if d < 1 {
		d = 1
	}
	if d > opt.MaxDistance {
		d = opt.MaxDistance
	}
	return d
}

// tripRuns counts, per §3.1, how many inner-latch branches occur between
// two occurrences of the outer latch in each LBR snapshot. Each complete
// run of n back-edges corresponds to n+1 inner iterations.
//
// headerPC is the inner header's first-instruction PC (the LBR target of
// the loop's entry edge). A window with zero back-edges is ambiguous: a
// single-trip invocation (the bottom-tested latch falls through, so no
// entry is pushed) and a *skipped* invocation (ragged inputs — a CSR row
// with no nonzeros never enters the loop) look identical by latch count
// alone. Only windows whose invocation actually ran — a back-edge, or an
// entry edge into headerPC from outside the loop — produce a run; skipped
// windows produce none, so they cannot deflate the average trip count.
// headerPC 0 disables entry detection (every window counts, the
// pre-disambiguation behavior for callers without IR access).
func tripRuns(inner, outer []uint64, headerPC uint64, samples []lbr.Sample) []int {
	if len(outer) == 0 {
		return nil
	}
	var runs []int
	for _, s := range samples {
		run := 0
		inWindow := false // have we seen an outer latch yet?
		entered := false  // did this window's invocation enter the loop?
		for _, e := range s.Entries {
			switch {
			case contains(outer, e.From):
				if inWindow && (run > 0 || entered || headerPC == 0) {
					runs = append(runs, run)
				}
				run = 0
				entered = false
				inWindow = true
			case contains(inner, e.From):
				if inWindow {
					run++
				}
			case headerPC != 0 && e.To == headerPC:
				// Entry edge: a taken branch into the inner header from
				// outside the loop (back-edges were consumed by the case
				// above). The invocation ran even if its only iteration
				// took no back-edge.
				entered = true
			}
		}
	}
	return runs
}

// avgTrip converts back-edge run lengths into the mean trip count.
func avgTrip(runs []int) float64 {
	if len(runs) == 0 {
		return 0
	}
	sum := 0
	for _, r := range runs {
		sum += r
	}
	return float64(sum)/float64(len(runs)) + 1
}
