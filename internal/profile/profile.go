// Package profile orchestrates APT-GET's single profiling run (§3.4): it
// executes a program with LBR sampling and PEBS LLC-miss sampling enabled
// (the perf-record analog) and packages the raw samples for the analysis
// stage. The profiled binary is the *baseline* build — no software
// prefetches — exactly as in the paper's automated methodology.
package profile

import (
	"fmt"

	"aptget/internal/cpu"
	"aptget/internal/ir"
	"aptget/internal/lbr"
	"aptget/internal/mem"
	"aptget/internal/obs"
	"aptget/internal/pebs"
	"aptget/internal/pmu"
)

// Options controls profile collection.
type Options struct {
	// SamplePeriod is the LBR snapshot interval in cycles. The default
	// (100k cycles) stands in for perf record's 1 ms default on the
	// paper's 3 GHz-class machine, scaled to our shorter simulations.
	SamplePeriod uint64
	// PEBSPeriod samples every Nth LLC-miss load. A prime default avoids
	// aliasing with loop structure.
	PEBSPeriod uint64
	// DelinquentShare is the minimum fraction of LLC-miss samples a load
	// PC must account for to be optimized.
	DelinquentShare float64
	// MinLoadSCKPI is the default (2-D) selection gate: the minimum
	// estimated stall cycles per kilo-instruction a load must cost to be
	// optimized. The score is miss_rate × mean_exposed_latency — a load
	// whose misses are frequent but almost fully hidden by in-flight
	// fills scores low, while a rare load whose every miss exposes the
	// full DRAM latency scores high. The default (50) keeps loads that
	// burn ≥5% of a CPI-1 baseline's cycles in exposed stalls; negative
	// disables the gate (rank only).
	MinLoadSCKPI float64
	// MPKIOnly reverts to the 1-D ablation path: gate on MinLoadMPKI
	// alone and rank by sample count, ignoring exposed latency — the
	// pre-2-D behavior, kept for the selection frontier experiment.
	MPKIOnly bool
	// MinLoadMPKI is the 1-D gate's minimum estimated
	// misses-per-kilo-instruction (used when MPKIOnly is set).
	// Applications (or inputs, e.g. road networks with high spatial
	// locality) that are not memory bound produce loads below this gate,
	// and injecting prefetches for them is pure instruction overhead —
	// the regression the paper's profile-guided selection avoids.
	// Default 0.5.
	MinLoadMPKI float64
	// LBRWidth overrides the branch-record depth (0 = 32, Intel LBR).
	LBRWidth int
	// Obs, when non-nil, receives the profiling stage's counters —
	// snapshots taken, PEBS samples, and how many delinquent-load
	// candidates the selection gate kept or dropped (aptbench -report).
	Obs *obs.Span
}

func (o *Options) fill() {
	if o.SamplePeriod == 0 {
		o.SamplePeriod = 100_000
	}
	if o.PEBSPeriod == 0 {
		o.PEBSPeriod = 97
	}
	if o.DelinquentShare == 0 {
		o.DelinquentShare = 0.02
	}
	if o.MinLoadSCKPI == 0 {
		o.MinLoadSCKPI = 50
	}
	if o.MinLoadMPKI == 0 {
		o.MinLoadMPKI = 0.5
	}
	if o.LBRWidth == 0 {
		o.LBRWidth = lbr.Width
	}
}

// Profile is the result of a profiling run.
type Profile struct {
	Samples  []lbr.Sample
	Loads    []pebs.Load // delinquent loads, highest selection score first
	Counters pmu.Counters
}

// SelectLoads applies the delinquent-load selection gate to share-gated
// candidates: it fills each load's Score (estimated stall cycles per
// kilo-instruction), drops loads below the configured gate, and returns
// the survivors ranked for the analysis stage. Both the offline
// profiling stage and the online re-planning controller run their
// candidates through this one function, so the two paths cannot drift.
//
// The candidates slice is mutated (scores filled, survivors compacted
// in place).
func SelectLoads(candidates []pebs.Load, instructions uint64, opt Options) []pebs.Load {
	opt.fill()
	kilo := float64(instructions) / 1000
	for i := range candidates {
		l := &candidates[i]
		if kilo > 0 {
			// samples × period / kilo-instructions = estimated MPKI;
			// × mean exposed latency = estimated stall cycles per
			// kilo-instruction. The two factors fold into one exact
			// expression over the stall sum.
			l.Score = float64(l.StallCycles) * float64(opt.PEBSPeriod) / kilo
		}
	}
	// A profile whose candidates carry no stall data (no sampled miss
	// recorded any exposed stall): every 2-D score would be zero and the
	// gate would drop the whole profile. Fall back to the 1-D path.
	noStall := len(candidates) > 0
	for i := range candidates {
		if candidates[i].StallCycles > 0 {
			noStall = false
			break
		}
	}
	if opt.MPKIOnly || noStall {
		// 1-D ablation: the pre-2-D MPKI floor, ranked by sample count
		// (the order Delinquent already returns).
		if instructions == 0 || opt.MinLoadMPKI <= 0 {
			return candidates
		}
		kept := candidates[:0]
		for _, l := range candidates {
			mpki := float64(l.Samples) * float64(opt.PEBSPeriod) / kilo
			if mpki >= opt.MinLoadMPKI {
				kept = append(kept, l)
			}
		}
		return kept
	}
	kept := candidates
	if instructions > 0 && opt.MinLoadSCKPI > 0 {
		kept = candidates[:0]
		for _, l := range candidates {
			if l.Score >= opt.MinLoadSCKPI {
				kept = append(kept, l)
			}
		}
	}
	pebs.SortByScore(kept)
	return kept
}

// RunOptions returns the cpu options of a profiling run: LBR snapshots
// and PEBS LLC-miss sampling armed at opt's periods. The caller adds
// InitMem and, if it wants one, an instruction budget. Sampling costs
// the simulated program no cycles, so a run with these options is also
// a baseline execution: its counters equal an unsampled run's.
func RunOptions(opt Options) cpu.Options {
	opt.fill()
	return cpu.Options{
		SamplePeriod: opt.SamplePeriod,
		PEBSPeriod:   opt.PEBSPeriod,
		LBRWidth:     opt.LBRWidth,
	}
}

// Collect runs the program once with profiling hardware enabled.
// initMem seeds the simulated memory before execution.
func Collect(p *ir.Program, cfg mem.Config, initMem func(*mem.Arena), opt Options) (*Profile, error) {
	copt := RunOptions(opt)
	copt.InitMem = initMem
	res, err := cpu.Run(p, cfg, copt)
	if err != nil {
		if res != nil {
			res.Hier.Release()
		}
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The profiling run's memory is only needed while the program executes;
	// the samples and counters FromRun keeps are plain values.
	res.Hier.Release()
	return FromRun(res, opt), nil
}

// FromRun packages the samples of a finished run made with RunOptions
// into a profile: the delinquent loads that pass the selection gate, the
// LBR snapshots and the run's counters. It reads no simulated memory, so
// the run's arena may already be released.
func FromRun(res *cpu.Result, opt Options) *Profile {
	opt.fill()
	loads := res.PEBS.Delinquent(opt.DelinquentShare)
	candidates := len(loads)
	loads = SelectLoads(loads, res.Counters.Instructions, opt)
	if sp := opt.Obs; sp != nil {
		sp.Set("cycles", int64(res.Counters.Cycles))
		sp.Set("instructions", int64(res.Counters.Instructions))
		sp.Set("lbr_samples", int64(len(res.LBRSamples)))
		var entries int64
		for _, s := range res.LBRSamples {
			entries += int64(len(s.Entries))
		}
		sp.Set("lbr_entries", entries)
		sp.Set("pebs_samples", int64(res.PEBS.Samples()))
		sp.Set("loads_candidates", int64(candidates))
		sp.Set("loads_kept", int64(len(loads)))
		if opt.MPKIOnly {
			sp.Set("selection_mpki_only", 1)
			sp.Set("loads_dropped_mpki", int64(candidates-len(loads)))
		} else {
			sp.Set("selection_2d", 1)
			sp.Set("loads_dropped_score", int64(candidates-len(loads)))
		}
	}
	return &Profile{
		Samples:  res.LBRSamples,
		Loads:    loads,
		Counters: res.Counters,
	}
}
