package workloads

import (
	"math/rand"

	"aptget/internal/core"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// PhaseKind selects how a phase's index stream walks the table.
type PhaseKind int

const (
	// PhaseStride walks the table sequentially — the hardware stride
	// prefetcher's home turf, with almost no exposed miss latency.
	PhaseStride PhaseKind = iota
	// PhaseGather draws uniform random indices from [0, Span) — the
	// dependent indirect pattern software prefetching exists for.
	PhaseGather
)

func (k PhaseKind) String() string {
	if k == PhaseStride {
		return "stride"
	}
	return "gather"
}

// Phase is one segment of a phase-changing run: an access pattern over
// the first Span table entries.
type Phase struct {
	Kind PhaseKind
	Span int64
}

// Phased is a phase-changing variant of the §2.1 microbenchmark: one
// flat loop `out += T[B[k]]` whose behaviour changes because the *data*
// in B changes region by region — sequential indices (stride phases),
// random indices over a growing footprint (gather phases, data-size
// ramps). The loop and its single delinquent load are identical across
// phases, so a prefetch plan profiled in one phase is structurally valid
// in all of them — only its profitability and Equation (1) provenance go
// stale. That is exactly the drift online re-planning targets.
type Phased struct {
	name      string
	Phases    []Phase
	PerPhase  int64 // iterations per phase
	TableSize int64
	Work      Complexity
	Seed      int64

	bArr, tArr, out ir.Array
}

// NewPhased returns a phase-changing workload with the given schedule.
func NewPhased(name string, phases []Phase, perPhase int64, work Complexity) *Phased {
	table := int64(1)
	for _, ph := range phases {
		if ph.Span > table {
			table = ph.Span
		}
	}
	return &Phased{
		name:      name,
		Phases:    phases,
		PerPhase:  perPhase,
		TableSize: table,
		Work:      work,
		Seed:      11,
	}
}

// NewPhaseSG alternates stride and gather phases over a DRAM-sized
// table, starting with stride — so a profile taken early sees a
// hardware-covered stream and plans nothing.
func NewPhaseSG(name string, phases int, perPhase int64) *Phased {
	span := int64(1 << 18) // 2 MiB of int64 ≫ 512 KiB LLC
	sched := make([]Phase, phases)
	for i := range sched {
		kind := PhaseStride
		if i%2 == 1 {
			kind = PhaseGather
		}
		sched[i] = Phase{Kind: kind, Span: span}
	}
	return NewPhased(name, sched, perPhase, ComplexityLow)
}

// NewPhaseRamp gathers from a footprint that quadruples each phase:
// LLC-resident at first — a profile taken there measures a ~40-cycle
// memory component and plans a short prefetch distance — then far
// beyond the LLC, where that distance is hopelessly late.
func NewPhaseRamp(name string, phases int, perPhase int64) *Phased {
	span := int64(1 << 15) // 256 KiB: fits the 512 KiB LLC, misses L2
	sched := make([]Phase, phases)
	for i := range sched {
		sched[i] = Phase{Kind: PhaseGather, Span: span}
		span *= 4
	}
	return NewPhased(name, sched, perPhase, ComplexityLow)
}

// NewPhaseFlat is the stationary control: one long gather phase with no
// drift, on which an adaptive controller must leave the one-shot plan
// alone.
func NewPhaseFlat(name string, perPhase int64) *Phased {
	return NewPhased(name, []Phase{{Kind: PhaseGather, Span: 1 << 18}}, perPhase, ComplexityLow)
}

// Prefix returns a variant that executes only the first n phases — the
// profile-time workload of a stale-plan (train/test) study, where the
// plan is computed before the later phases exist.
func (p *Phased) Prefix(n int) *Phased {
	if n > len(p.Phases) {
		n = len(p.Phases)
	}
	q := *p
	q.name = p.name + "-train"
	q.Phases = append([]Phase(nil), p.Phases[:n]...)
	q.bArr, q.tArr, q.out = ir.Array{}, ir.Array{}, ir.Array{}
	return &q
}

// Name implements core.Workload.
func (p *Phased) Name() string { return p.name }

// Total returns the run's iteration count.
func (p *Phased) Total() int64 { return int64(len(p.Phases)) * p.PerPhase }

// Build implements core.Workload. The program is one flat loop, so the
// phase structure lives entirely in the data: the loop body, its PCs,
// and its single indirect load are identical in every phase.
func (p *Phased) Build() (*ir.Program, error) {
	b := ir.NewBuilder(p.name)
	p.bArr = b.Alloc("B", p.Total(), 8)
	p.tArr = b.Alloc("T", p.TableSize, 8)
	p.out = b.Alloc("out", 1, 8)
	zero := b.Const(0)
	b.Loop("k", zero, b.Const(p.Total()), 1, func(k ir.Value) {
		idx := b.LoadElem(p.bArr, k)
		v := b.Named(b.LoadElem(p.tArr, idx), "T[B[k]]")
		acc := work(b, v, int(p.Work))
		old := b.LoadElem(p.out, zero)
		b.StoreElem(p.out, zero, b.Add(old, acc))
	})
	return b.Finish(), nil
}

func (p *Phased) data() []int64 {
	rng := rand.New(rand.NewSource(p.Seed))
	bs := make([]int64, p.Total())
	for ph, phase := range p.Phases {
		base := int64(ph) * p.PerPhase
		for k := int64(0); k < p.PerPhase; k++ {
			switch phase.Kind {
			case PhaseStride:
				bs[base+k] = k % phase.Span
			case PhaseGather:
				bs[base+k] = rng.Int63n(phase.Span)
			}
		}
	}
	return bs
}

func (p *Phased) tableValue(i int64) int64 { return i*13%2027 + 1 }

// InitMem implements core.Workload.
func (p *Phased) InitMem(a *mem.Arena) {
	for i, v := range p.data() {
		a.Write(p.bArr.Addr(int64(i)), v, 8)
	}
	for i := int64(0); i < p.TableSize; i++ {
		a.Write(p.tArr.Addr(i), p.tableValue(i), 8)
	}
}

// Verify implements core.Workload.
func (p *Phased) Verify(a *mem.Arena) error {
	var want int64
	for _, idx := range p.data() {
		want += workNative(p.tableValue(idx), int(p.Work))
	}
	return expectScalar(a, p.out, 0, want, p.name+": out")
}

// PhasedRegistry returns the phase-changing corpus used by the online
// re-planning study (aptbench -exp replan). It is kept separate from
// Registry so the paper's Table 3 sweeps are unchanged; ByKey resolves
// both.
func PhasedRegistry() []Entry {
	return withPrograms([]Entry{
		{
			Key: "phaseSG", Description: "alternating stride↔gather indirect phases", Dataset: "",
			New: func() core.Workload { return NewPhaseSG("phaseSG", 4, 12_288) },
		},
		{
			Key: "phaseRamp", Description: "random gather over a 256 KiB→4 MiB footprint ramp", Dataset: "",
			New: func() core.Workload { return NewPhaseRamp("phaseRamp", 3, 12_288) },
		},
		{
			Key: "phaseFlat", Description: "stationary random gather (re-planning control)", Dataset: "",
			New: func() core.Workload { return NewPhaseFlat("phaseFlat", 49_152) },
		},
	})
}
