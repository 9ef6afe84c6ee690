package workloads

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// This file is the adversarial scenario corpus for delinquent-load
// selection: kernels built so that miss *frequency* and miss *cost*
// disagree. A 1-D MPKI gate picks the wrong loads on them; the 2-D
// score (miss rate × exposed latency) picks the right ones.
//
//   - LSMScan: an LSM/columnar scan with hot-but-cheap misses (the scan
//     stream, covered by an in-kernel next-line software prefetch, so
//     each miss exposes only a residual few cycles) and cold-but-
//     expensive misses (rare filter probes that each eat a full DRAM
//     round trip) in one loop nest.
//   - BTreeProbe: a dependent pointer chase through out-of-cache nodes —
//     frequent AND expensive, kept by both gates (a control).
//   - Interleave: a multi-tenant combinator that round-robins the
//     kernels of several workloads in one program, so their miss
//     streams share the caches and the selection gate must separate
//     them inside a single profile.

// Kernel is a workload whose loop nests can be embedded into a shared
// program. AllocIn reserves the kernel's arrays in a shared builder;
// EmitRound emits one round-robin chunk of its work. Rounds partition
// the kernel's iteration space, so emitting rounds 0..R-1 (in order,
// possibly interleaved with other tenants) performs exactly the
// standalone kernel's work. A standalone Build is AllocIn + one round.
type Kernel interface {
	core.Workload
	AllocIn(b *ir.Builder)
	EmitRound(b *ir.Builder, round, rounds int64)
}

// chunk splits [0, n) into `rounds` contiguous pieces and returns the
// half-open bounds of piece `round`.
func chunk(n, round, rounds int64) (lo, hi int64) {
	return n * round / rounds, n * (round + 1) / rounds
}

// lsmHashC disperses probe cursors across the filter (Knuth's
// multiplicative constant; arithmetic wraps identically in the IR
// interpreter and the native int64 mirror).
const lsmHashC = 2654435761

// LSMScan models an LSM-tree / columnar segment scan. The scan stream
// reads 8-element (one cache line) blocks of the keys array and does
// per-value work; the kernel software-prefetches the next line late
// enough that the line is still in flight when the scan reaches it —
// every block boundary is an LLC miss, but one exposing only the
// residual fill wait (tens of cycles). Every ProbeEvery-th block the
// scan consults a bloom-filter-like table at a pseudo-random cursor:
// rare, but each probe is a blocking DRAM miss. The scan's in-line
// access order is permuted (j XOR 5) so the hardware stride prefetcher
// never locks onto the stream and the software prefetch stays the
// fill's initiator — as in real scan kernels, whose manual prefetches
// are precisely what the streamer cannot cover.
type LSMScan struct {
	Label      string
	Blocks     int64 // cache-line blocks scanned (8 int64 each)
	ProbeEvery int64 // filter probe every Nth block (power of two)
	FilterLg   int64 // filter table has 2^FilterLg elements
	InnerWork  int   // ALU chain per scanned element
	PostWork   int   // ALU chain between the prefetch and the next block
	Seed       int64

	keys, filter, out, meta ir.Array
}

// NewLSMScan sizes the scan: the filter (2^19 × 8 B = 4 MiB) dwarfs the
// LLC so probes always miss; PostWork is tuned so the scan's residual
// exposure stays a small, positive slice of the DRAM latency.
func NewLSMScan(blocks int64) *LSMScan {
	return &LSMScan{
		Label:      "LSM",
		Blocks:     blocks,
		ProbeEvery: 8,
		FilterLg:   19,
		InnerWork:  6,
		PostWork:   92,
		Seed:       0x2545F4914F6CDD1D,
	}
}

func (w *LSMScan) filterSize() int64 { return int64(1) << w.FilterLg }
func (w *LSMScan) filterMask() int64 { return w.filterSize() - 1 }

// keyVal and filterVal are the deterministic array contents, shared by
// InitMem and the native mirror.
func (w *LSMScan) keyVal(i int64) int64    { return (i*7 + 3) % 1013 }
func (w *LSMScan) filterVal(i int64) int64 { return (i*13 + 5) % 2027 }

// Name implements core.Workload.
func (w *LSMScan) Name() string { return w.Label }

// Build implements core.Workload.
func (w *LSMScan) Build() (*ir.Program, error) {
	b := ir.NewBuilder(w.Label)
	w.AllocIn(b)
	w.EmitRound(b, 0, 1)
	return b.Finish(), nil
}

// AllocIn implements Kernel.
func (w *LSMScan) AllocIn(b *ir.Builder) {
	w.keys = b.Alloc("keys", w.Blocks*8, 8)
	w.filter = b.Alloc("filter", w.filterSize(), 8)
	w.out = b.Alloc("out", 3, 8)   // [0]=scan acc, [1]=probe acc, [2]=delay acc
	w.meta = b.Alloc("meta", 1, 8) // [0]=probe cursor state
}

// EmitRound implements Kernel.
func (w *LSMScan) EmitRound(b *ir.Builder, round, rounds int64) {
	lo, hi := chunk(w.Blocks, round, rounds)
	zero := b.Const(0)
	one := b.Const(1)
	two := b.Const(2)
	mask := b.Const(w.filterMask())
	b.Loop("blk", b.Const(lo), b.Const(hi), 1, func(k ir.Value) {
		base := b.Mul(k, b.Const(8))
		// Scan the block in a permuted order (5,4,7,6,1,0,3,2): same
		// elements, but no two consecutive accesses share a stride, so
		// the IP-stride prefetcher never reaches confidence.
		b.Loop("j", zero, b.Const(8), 1, func(j ir.Value) {
			idx := b.Add(base, b.Xor(j, b.Const(5)))
			v := b.Named(b.LoadElem(w.keys, idx), "scan")
			acc := work(b, v, w.InnerWork)
			old := b.LoadElem(w.out, zero)
			b.StoreElem(w.out, zero, b.Add(old, acc))
		})
		// Rare filter probe: xorshift cursor (random walk defeats the
		// stride prefetcher), blocking DRAM miss.
		probeHit := b.Cmp(ir.PredEQ, b.And(k, b.Const(w.ProbeEvery-1)), zero)
		b.If(probeHit, func() {
			s := b.LoadElem(w.meta, zero)
			x := b.Xor(s, b.Shl(s, b.Const(13)))
			x = b.Xor(x, b.Shr(x, b.Const(17)))
			x = b.Xor(x, b.Shl(x, b.Const(5)))
			s = b.And(x, mask)
			b.StoreElem(w.meta, zero, s)
			f := b.Named(b.LoadElem(w.filter, s), "probe")
			old := b.LoadElem(w.out, one)
			b.StoreElem(w.out, one, b.Add(old, f))
		}, nil)
		// Cover the next block's line, then delay just long enough that
		// the fill is *almost* — but not quite — complete when the next
		// block's first load arrives.
		b.PrefetchElem(w.keys, b.Add(base, b.Const(8)))
		d := work(b, k, w.PostWork)
		old := b.LoadElem(w.out, two)
		b.StoreElem(w.out, two, b.Add(old, d))
	})
}

// InitMem implements core.Workload.
func (w *LSMScan) InitMem(a *mem.Arena) {
	for i := int64(0); i < w.Blocks*8; i++ {
		a.Write(w.keys.Addr(i), w.keyVal(i), 8)
	}
	for i := int64(0); i < w.filterSize(); i++ {
		a.Write(w.filter.Addr(i), w.filterVal(i), 8)
	}
	a.Write(w.meta.Addr(0), w.Seed&w.filterMask(), 8)
}

// Verify implements core.Workload.
func (w *LSMScan) Verify(a *mem.Arena) error {
	var scanAcc, probeAcc, delayAcc int64
	s := w.Seed & w.filterMask()
	for k := int64(0); k < w.Blocks; k++ {
		for j := int64(0); j < 8; j++ {
			scanAcc += workNative(w.keyVal(k*8+(j^5)), w.InnerWork)
		}
		if k&(w.ProbeEvery-1) == 0 {
			s = stepNative(s, w.filterMask())
			probeAcc += w.filterVal(s)
		}
		delayAcc += workNative(k, w.PostWork)
	}
	if err := expectScalar(a, w.out, 0, scanAcc, w.Label+": scan acc"); err != nil {
		return err
	}
	if err := expectScalar(a, w.out, 1, probeAcc, w.Label+": probe acc"); err != nil {
		return err
	}
	return expectScalar(a, w.out, 2, delayAcc, w.Label+": delay acc")
}

// btreeNodeC mixes node contents so the chase wanders the whole table
// (wrapping int64 multiply, identical in IR and native).
const btreeNodeC = -0x61c8864680b583eb // 0x9E3779B97F4A7C15 as int64

// BTreeProbe is a B-tree-style point-lookup storm: each query walks
// Depth dependent node reads through a nodes table far larger than the
// LLC. Every hop is a blocking DRAM miss whose address depends on the
// previous hop's value — frequent AND expensive, so both the 1-D and
// 2-D gates keep it (the corpus's control case).
type BTreeProbe struct {
	Label   string
	NodesLg int64 // nodes table has 2^NodesLg elements
	Queries int64
	Depth   int64

	nodes, out ir.Array
}

// NewBTreeProbe sizes the tree: 2^19 × 8 B = 4 MiB of nodes, depth-8
// walks (a ~256-way B-tree over ~10^19 keys would be this deep).
func NewBTreeProbe(queries int64) *BTreeProbe {
	return &BTreeProbe{Label: "BTree", NodesLg: 19, Queries: queries, Depth: 8}
}

func (w *BTreeProbe) mask() int64 { return (int64(1) << w.NodesLg) - 1 }

func (w *BTreeProbe) nodeVal(i int64) int64 { return i * btreeNodeC }

// Name implements core.Workload.
func (w *BTreeProbe) Name() string { return w.Label }

// Build implements core.Workload.
func (w *BTreeProbe) Build() (*ir.Program, error) {
	b := ir.NewBuilder(w.Label)
	w.AllocIn(b)
	w.EmitRound(b, 0, 1)
	return b.Finish(), nil
}

// AllocIn implements Kernel.
func (w *BTreeProbe) AllocIn(b *ir.Builder) {
	w.nodes = b.Alloc("nodes", int64(1)<<w.NodesLg, 8)
	w.out = b.Alloc("btout", 2, 8) // [0]=sum, [1]=walk cursor
}

// EmitRound implements Kernel.
func (w *BTreeProbe) EmitRound(b *ir.Builder, round, rounds int64) {
	lo, hi := chunk(w.Queries, round, rounds)
	zero := b.Const(0)
	one := b.Const(1)
	mask := b.Const(w.mask())
	b.Loop("q", b.Const(lo), b.Const(hi), 1, func(q ir.Value) {
		salt := b.Mul(q, b.Const(lsmHashC))
		b.Loop("d", zero, b.Const(w.Depth), 1, func(d ir.Value) {
			v := b.LoadElem(w.out, one)
			idx := b.And(b.Xor(v, b.Add(salt, d)), mask)
			n := b.Named(b.LoadElem(w.nodes, idx), "walk")
			b.StoreElem(w.out, one, n)
		})
		sum := b.LoadElem(w.out, zero)
		v := b.LoadElem(w.out, one)
		b.StoreElem(w.out, zero, b.Add(sum, v))
	})
}

// InitMem implements core.Workload.
func (w *BTreeProbe) InitMem(a *mem.Arena) {
	n := int64(1) << w.NodesLg
	for i := int64(0); i < n; i++ {
		a.Write(w.nodes.Addr(i), w.nodeVal(i), 8)
	}
}

// Verify implements core.Workload.
func (w *BTreeProbe) Verify(a *mem.Arena) error {
	var sum, v int64
	for q := int64(0); q < w.Queries; q++ {
		salt := q * lsmHashC
		for d := int64(0); d < w.Depth; d++ {
			v = w.nodeVal((v ^ (salt + d)) & w.mask())
		}
		sum += v
	}
	return expectScalar(a, w.out, 0, sum, w.Label+": sum")
}

// Interleave round-robins the kernels of several tenant workloads in
// one program: round r emits each tenant's r-th chunk in turn. The
// tenants' working sets evict each other between rounds, and the
// combined profile carries every tenant's delinquent loads — the
// selection gate has to separate cheap from expensive across tenant
// boundaries, not just within one kernel.
type Interleave struct {
	Label   string
	Rounds  int64
	Tenants []Kernel
}

// NewInterleave builds the combinator; rounds must be ≥ 1.
func NewInterleave(label string, rounds int64, tenants ...Kernel) *Interleave {
	if rounds < 1 {
		rounds = 1
	}
	return &Interleave{Label: label, Rounds: rounds, Tenants: tenants}
}

// Name implements core.Workload.
func (v *Interleave) Name() string { return v.Label }

// Build implements core.Workload.
func (v *Interleave) Build() (*ir.Program, error) {
	if len(v.Tenants) == 0 {
		return nil, fmt.Errorf("interleave %s: no tenants", v.Label)
	}
	b := ir.NewBuilder(v.Label)
	for _, t := range v.Tenants {
		t.AllocIn(b)
	}
	for r := int64(0); r < v.Rounds; r++ {
		for _, t := range v.Tenants {
			t.EmitRound(b, r, v.Rounds)
		}
	}
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (v *Interleave) InitMem(a *mem.Arena) {
	for _, t := range v.Tenants {
		t.InitMem(a)
	}
}

// Verify implements core.Workload.
func (v *Interleave) Verify(a *mem.Arena) error {
	for _, t := range v.Tenants {
		if err := t.Verify(a); err != nil {
			return fmt.Errorf("interleave %s: tenant %s: %w", v.Label, t.Name(), err)
		}
	}
	return nil
}

// AdversarialRegistry returns the selection-adversarial corpus. It is
// deliberately not part of Registry(): the Table 3 corpus drives the
// paper's headline experiments and its plan set is pinned by golden
// tests, while these kernels exist to stress the selection gate (the
// aptbench -exp selection sweep and the selection-smoke CI job).
func AdversarialRegistry() []Entry {
	return withPrograms([]Entry{
		{
			Key: "LSM", Description: "LSM/columnar scan: hot covered scan + cold filter probes",
			New: func() core.Workload { return NewLSMScan(4096) },
		},
		{
			Key: "BTree", Description: "B-tree point lookups: dependent out-of-cache node walks",
			New: func() core.Workload { return NewBTreeProbe(480) },
		},
		{
			Key: "MTI", Description: "multi-tenant interleave: micro + LSM + BTree round-robin",
			New: func() core.Workload {
				micro := &Micro{Outer: 512, Inner: 8, TableSize: 1 << 18,
					Work: ComplexityMedium, Seed: 7}
				lsm := NewLSMScan(2048)
				lsm.ProbeEvery = 2 // keep the probe above the share gate
				return NewInterleave("MTI", 4, micro, lsm, NewBTreeProbe(480))
			},
		},
	})
}
