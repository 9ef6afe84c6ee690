package workloads

import (
	"fmt"

	"aptget/internal/ir"
	"aptget/internal/mem"
)

// RandAcc is the HPC Challenge RandomAccess (GUPS) kernel: read-modify-
// write updates of a large table at pseudo-random indices produced by a
// xorshift recurrence. The address recurrence is a loop-carried phi with
// a non-affine update — the §3.5 non-canonical induction case, which the
// prefetch pass handles by replicating the update chain (and which costs
// the instruction overhead the paper reports for randAcc in Figure 11).
type RandAcc struct {
	Label   string
	TableLg int64 // table size = 2^TableLg
	Updates int64
	Seed    int64

	wantChecksum int64

	table, meta ir.Array // meta[0]=iteration counter
}

// NewRandAcc builds the workload; the table (2^lg × 8 bytes) must exceed
// the LLC.
func NewRandAcc(tableLg, updates int64) *RandAcc {
	w := newRandAcc(tableLg, updates)
	w.wantChecksum = w.native()
	return w
}

// newRandAcc is NewRandAcc without the native reference: enough to
// Build.
func newRandAcc(tableLg, updates int64) *RandAcc {
	return &RandAcc{Label: "randAcc", TableLg: tableLg, Updates: updates, Seed: 0x2545F4914F6CDD1D}
}

// step is the xorshift64 recurrence, masked to the table size, shared
// verbatim between the IR builder and the native mirror.
func stepNative(s, mask int64) int64 {
	// Go's >> on int64 is arithmetic, exactly like the IR's OpShr; the
	// masked state stays non-negative, so the shifts agree bit-for-bit.
	x := s ^ (s << 13)
	x ^= x >> 17
	x ^= x << 5
	return x & mask
}

func (w *RandAcc) mask() int64 { return (int64(1) << w.TableLg) - 1 }

func (w *RandAcc) native() int64 {
	mask := w.mask()
	n := int64(1) << w.TableLg
	table := make([]int64, n)
	for i := range table {
		table[i] = int64(i)
	}
	s := w.Seed & mask
	for i := int64(0); i < w.Updates; i++ {
		table[s] ^= s
		s = stepNative(s, mask)
	}
	var sum int64
	for _, v := range table {
		sum += v
	}
	return sum
}

// Name implements core.Workload.
func (w *RandAcc) Name() string { return w.Label }

// Build implements core.Workload.
func (w *RandAcc) Build() (*ir.Program, error) {
	n := int64(1) << w.TableLg
	b := ir.NewBuilder(w.Label)
	w.table = b.Alloc("T", n, 8)
	w.meta = b.Alloc("meta", 2, 8) // [0]=counter, [1]=checksum

	zero := b.Const(0)
	one := b.Const(1)
	mask := b.Const(w.mask())

	update := func(s ir.Value) ir.Value {
		x := b.Xor(s, b.Shl(s, b.Const(13)))
		x = b.Xor(x, b.Shr(x, b.Const(17)))
		x = b.Xor(x, b.Shl(x, b.Const(5)))
		return b.And(x, mask)
	}

	b.LoopCustom("s", b.Const(w.Seed&w.mask()),
		update,
		func(next ir.Value) ir.Value {
			c := b.LoadElem(w.meta, zero)
			c1 := b.Add(c, one)
			b.StoreElem(w.meta, zero, c1)
			return b.Cmp(ir.PredLT, c1, b.Const(w.Updates))
		},
		nil,
		func(s ir.Value) {
			v := b.Named(b.LoadElem(w.table, s), "T[ran]") // delinquent load
			b.StoreElem(w.table, s, b.Xor(v, s))
		})

	// Checksum pass (sequential, hardware-prefetched).
	b.Loop("ck", zero, b.Const(n), 1, func(i ir.Value) {
		v := b.LoadElem(w.table, i)
		acc := b.LoadElem(w.meta, one)
		b.StoreElem(w.meta, one, b.Add(acc, v))
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *RandAcc) InitMem(a *mem.Arena) {
	n := int64(1) << w.TableLg
	for i := int64(0); i < n; i++ {
		a.Write(w.table.Addr(i), i, 8)
	}
}

// Verify implements core.Workload.
func (w *RandAcc) Verify(a *mem.Arena) error {
	if err := expectScalar(a, w.meta, 1, w.wantChecksum, "randAcc: checksum"); err != nil {
		return fmt.Errorf("randacc: %w", err)
	}
	return nil
}
