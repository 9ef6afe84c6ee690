// Package wire is the serving subsystem's versioned, deterministic
// serialization of profiles and prefetch plans. A profile on the wire is
// what the paper's collection step produces — PEBS delinquent-load
// samples, LBR snapshots, and the loop structure of the profiled binary —
// and a plan set is what the analytical model derives from it (site,
// distance, Equation 1/2 provenance).
//
// Two properties carry the whole design:
//
//   - Determinism: EncodeProfile canonicalizes before writing (loads in
//     delinquency order, snapshots in cycle order), so the same logical
//     profile encodes to the same bytes regardless of how the caller
//     ordered its slices. decode(encode(x)) == canonical(x), and
//     encode(decode(b)) == b for any b produced by Encode*.
//   - Content addressing: Fingerprint is a stable hash over the canonical
//     bytes, used as the plan-cache key; ShapeHash hashes only the loop
//     structure (nesting + latch shape, never raw PCs), so profiles of
//     drifted builds of the same program still match (stale-profile
//     matching, after Ayupov et al.).
//
// The format is a fixed field order per kind — no maps, no reflection —
// so byte stability needs no canonical-JSON machinery.
package wire

import (
	"slices"
	"sort"

	"aptget/internal/analysis"
	"aptget/internal/ir"
	"aptget/internal/lbr"
	"aptget/internal/obs"
	"aptget/internal/pebs"
	"aptget/internal/pmu"
	"aptget/internal/profile"
)

// Version is the wire-format version. Decoders reject frames of any
// other version rather than guessing at field layouts.
//
// Version 2 added the per-load exposed-stall dimension: Load carries
// StallCycles and Plan carries the 2-D selection provenance (Score,
// MeanStall).
const Version = 2

// Frame kinds (the byte after the header's version).
const (
	KindProfile = 1
	KindPlanSet = 2
)

// Load mirrors pebs.Load on the wire: one delinquent-load candidate.
// StallCycles is the summed exposed stall of the PC's sampled misses.
type Load struct {
	PC          uint64
	Samples     uint64
	StallCycles uint64
	Share       float64
}

// LoopShape is one loop of the profiled binary with every PC stripped:
// only the nesting position and the latch/block shape remain. This is
// the structure stale-profile matching keys on — it survives recompiles
// that move code but keep the loop nest.
type LoopShape struct {
	Depth        int32
	Parent       int32 // index of the enclosing loop in Profile.Loops, -1 for roots
	Latches      int32
	Blocks       int32
	HasInduction bool
}

// Profile is the ingestion payload: everything the analysis stage needs
// to derive plans, plus the loop metadata the cache needs for stale
// matching. App names the workload (the program identity — builds are
// deterministic, so the server can rebuild the binary the PCs refer to).
type Profile struct {
	App          string
	Cycles       uint64
	Instructions uint64
	Loads        []Load
	Samples      []lbr.Sample
	Loops        []LoopShape
}

// Plan is one delinquent load's decision with its Equation (1)/(2)
// provenance — the wire form of an analysis.Plan through its PlanRecord.
type Plan struct {
	LoadPC   uint64
	LoadName string
	Site     string // "inner" | "outer"
	Distance int64

	IC      float64
	MC      float64
	AvgTrip float64
	K       int64

	InnerDistance int64
	OuterDistance int64

	PeaksInner []float64
	PeaksOuter []float64

	LatencySamples      int64
	DroppedNonMonotonic int64
	Fallback            string

	// 2-D selection provenance (added in version 2).
	Score     float64
	MeanStall float64
}

// PlanSet is the serving payload for one profile: the plans in analysis
// order. It deliberately carries no fingerprint — the cache addresses
// plan bytes by the profile they came from, so a stale match can serve
// the prior bytes verbatim.
type PlanSet struct {
	App   string
	Plans []Plan
}

// Canonicalize sorts the profile's slices into the canonical order
// Encode uses: loads most-delinquent first (samples desc, PC asc — the
// pebs.Delinquent order, which the analysis stage iterates), snapshots
// by (cycle, length, entries). It mutates the receiver.
func (p *Profile) Canonicalize() {
	sort.SliceStable(p.Loads, func(i, j int) bool {
		return lessLoad(&p.Loads[i], &p.Loads[j])
	})
	sort.SliceStable(p.Samples, func(i, j int) bool {
		return lessSample(&p.Samples[i], &p.Samples[j])
	})
}

// Clone returns a deep copy of p that shares no memory with it: a
// profile decoded by a reused Decoder must be cloned to outlive the
// decoder's next use.
func (p *Profile) Clone() *Profile {
	c := *p
	c.Loads = slices.Clone(p.Loads)
	c.Loops = slices.Clone(p.Loops)
	if p.Samples != nil {
		n := 0
		for _, sm := range p.Samples {
			n += len(sm.Entries)
		}
		entries := make([]lbr.Entry, 0, n)
		c.Samples = make([]lbr.Sample, len(p.Samples))
		for i, sm := range p.Samples {
			c.Samples[i].Cycle = sm.Cycle
			if sm.Entries != nil {
				start := len(entries)
				entries = append(entries, sm.Entries...)
				c.Samples[i].Entries = entries[start:len(entries):len(entries)]
			}
		}
	}
	return &c
}

// isCanonical reports whether Canonicalize would leave p byte-for-byte
// unchanged. Both predicates are strict weak orderings, so a slice with
// no adjacent inversion is globally sorted, and a stable sort of a
// sorted slice is the identity.
func (p *Profile) isCanonical() bool {
	for i := 1; i < len(p.Loads); i++ {
		if lessLoad(&p.Loads[i], &p.Loads[i-1]) {
			return false
		}
	}
	for i := 1; i < len(p.Samples); i++ {
		if lessSample(&p.Samples[i], &p.Samples[i-1]) {
			return false
		}
	}
	return true
}

func lessLoad(a, b *Load) bool {
	if a.Samples != b.Samples {
		return a.Samples > b.Samples
	}
	return a.PC < b.PC
}

func lessSample(a, b *lbr.Sample) bool {
	if a.Cycle != b.Cycle {
		return a.Cycle < b.Cycle
	}
	if len(a.Entries) != len(b.Entries) {
		return len(a.Entries) < len(b.Entries)
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Cycle != eb.Cycle {
			return ea.Cycle < eb.Cycle
		}
		if ea.From != eb.From {
			return ea.From < eb.From
		}
		if ea.To != eb.To {
			return ea.To < eb.To
		}
	}
	return false
}

// ProfileOf packages a collected profile for the wire: the PEBS loads
// and LBR snapshots verbatim, and the program's loop forest reduced to
// PC-free shapes. prog must be the build that was profiled.
func ProfileOf(app string, prog *ir.Program, prof *profile.Profile) *Profile {
	p := &Profile{
		App:          app,
		Cycles:       prof.Counters.Cycles,
		Instructions: prof.Counters.Instructions,
	}
	for _, l := range prof.Loads {
		p.Loads = append(p.Loads, Load{
			PC: l.PC, Samples: l.Samples, StallCycles: l.StallCycles, Share: l.Share,
		})
	}
	p.Samples = append(p.Samples, prof.Samples...)
	p.Loops = LoopShapes(prog.Func)
	return p
}

// LoopShapes reduces a function's loop forest to its PC-free structure.
// The forest is ordered by header block ID (ir.AnalyzeLoops), which is a
// build-order invariant, so the slice is deterministic per program.
func LoopShapes(f *ir.Func) []LoopShape {
	forest := ir.AnalyzeLoops(f)
	index := make(map[*ir.Loop]int32, len(forest.Loops))
	for i, l := range forest.Loops {
		index[l] = int32(i)
	}
	shapes := make([]LoopShape, 0, len(forest.Loops))
	for _, l := range forest.Loops {
		parent := int32(-1)
		if l.Parent != nil {
			parent = index[l.Parent]
		}
		shapes = append(shapes, LoopShape{
			Depth:        int32(l.Depth),
			Parent:       parent,
			Latches:      int32(len(l.Latches)),
			Blocks:       int32(len(l.Blocks)),
			HasInduction: l.InductionPhi(f) != ir.NoValue,
		})
	}
	return shapes
}

// ToProfile reconstructs the in-process profile the analysis stage
// consumes. The loop metadata stays behind — the server re-derives loops
// from its own deterministic build.
func (p *Profile) ToProfile() *profile.Profile {
	out := &profile.Profile{
		Counters: pmu.Counters{Cycles: p.Cycles, Instructions: p.Instructions},
	}
	for _, l := range p.Loads {
		pl := pebs.Load{
			PC: l.PC, Samples: l.Samples, Share: l.Share,
			StallCycles: l.StallCycles,
		}
		if l.Samples > 0 {
			pl.MeanStall = float64(l.StallCycles) / float64(l.Samples)
		}
		out.Loads = append(out.Loads, pl)
	}
	out.Samples = append(out.Samples, p.Samples...)
	return out
}

// PlanFromRecord maps a provenance record onto the wire plan.
func PlanFromRecord(rec obs.PlanRecord) Plan {
	return Plan{
		LoadPC:              rec.LoadPC,
		LoadName:            rec.Load,
		Site:                rec.Site,
		Distance:            rec.Distance,
		IC:                  rec.IC,
		MC:                  rec.MC,
		AvgTrip:             rec.AvgTrip,
		K:                   rec.K,
		InnerDistance:       rec.InnerDistance,
		OuterDistance:       rec.OuterDistance,
		PeaksInner:          append([]float64(nil), rec.PeaksInner...),
		PeaksOuter:          append([]float64(nil), rec.PeaksOuter...),
		LatencySamples:      int64(rec.LatencySamples),
		DroppedNonMonotonic: int64(rec.DroppedNonMonotonic),
		Fallback:            rec.Fallback,
		Score:               rec.Score,
		MeanStall:           rec.MeanStall,
	}
}

// PlanSetFromAnalysis converts the analysis stage's output. opt must be
// the Options the plans were computed with (K reaches the record).
func PlanSetFromAnalysis(app string, plans []analysis.Plan, opt analysis.Options) *PlanSet {
	ps := &PlanSet{App: app}
	for i := range plans {
		ps.Plans = append(ps.Plans, PlanFromRecord(plans[i].Record(opt)))
	}
	return ps
}
