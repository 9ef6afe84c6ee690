package workloads

import (
	"fmt"
	"math/rand"

	"aptget/internal/ir"
	"aptget/internal/mem"
)

// IS is the NAS Integer Sort kernel: repeated bucket-sort ranking of
// random integer keys. The delinquent accesses are the count-array
// increments cnt[keys[i]] and the rank gathering — indirect through the
// sequentially-streamed key array, exactly the access pair the paper
// describes for IS (§4.2).
type IS struct {
	Label   string
	Keys    int64 // number of keys
	Buckets int64 // key range / count-array size (power of two)
	Iters   int64
	Seed    int64

	wantRank []int64

	keys, cnt, rank ir.Array
}

// NewIS builds the workload (Class-scaled: the count array exceeds the
// LLC).
func NewIS(keys, buckets, iters int64) *IS {
	w := newIS(keys, buckets, iters)
	w.wantRank = w.nativeRank()
	return w
}

// newIS is NewIS without the native reference: enough to Build.
func newIS(keys, buckets, iters int64) *IS {
	return &IS{Label: "IS", Keys: keys, Buckets: buckets, Iters: iters, Seed: 31}
}

func (w *IS) keyData() []int64 {
	rng := rand.New(rand.NewSource(w.Seed))
	ks := make([]int64, w.Keys)
	for i := range ks {
		ks[i] = rng.Int63n(w.Buckets)
	}
	return ks
}

// nativeRank mirrors the IR program: per iteration, zero counts, count,
// prefix-sum, then assign ranks back-to-front semantics-free (each key's
// rank is the decremented running count).
func (w *IS) nativeRank() []int64 {
	keys := w.keyData()
	cnt := make([]int64, w.Buckets)
	rank := make([]int64, w.Keys)
	for it := int64(0); it < w.Iters; it++ {
		for b := range cnt {
			cnt[b] = 0
		}
		for _, k := range keys {
			cnt[k]++
		}
		for b := int64(1); b < w.Buckets; b++ {
			cnt[b] += cnt[b-1]
		}
		for i, k := range keys {
			c := cnt[k] - 1
			cnt[k] = c
			rank[i] = c
		}
	}
	return rank
}

// Name implements core.Workload.
func (w *IS) Name() string { return w.Label }

// Build implements core.Workload.
func (w *IS) Build() (*ir.Program, error) {
	b := ir.NewBuilder(w.Label)
	w.keys = b.Alloc("keys", w.Keys, 8)
	w.cnt = b.Alloc("cnt", w.Buckets, 8)
	w.rank = b.Alloc("rank", w.Keys, 8)

	zero := b.Const(0)
	one := b.Const(1)
	nk := b.Const(w.Keys)
	nb := b.Const(w.Buckets)

	b.Loop("it", zero, b.Const(w.Iters), 1, func(it ir.Value) {
		b.Loop("z", zero, nb, 1, func(i ir.Value) {
			b.StoreElem(w.cnt, i, zero)
		})
		b.Loop("count", zero, nk, 1, func(i ir.Value) {
			k := b.LoadElem(w.keys, i)
			c := b.Named(b.LoadElem(w.cnt, k), "cnt[keys[i]]") // delinquent load
			b.StoreElem(w.cnt, k, b.Add(c, one))
		})
		b.Loop("psum", b.Const(1), nb, 1, func(i ir.Value) {
			prev := b.LoadElem(w.cnt, b.Sub(i, one))
			cur := b.LoadElem(w.cnt, i)
			b.StoreElem(w.cnt, i, b.Add(cur, prev))
		})
		b.Loop("rankit", zero, nk, 1, func(i ir.Value) {
			k := b.LoadElem(w.keys, i)
			c := b.Sub(b.Named(b.LoadElem(w.cnt, k), "cnt[keys[i]] (rank)"), one) // delinquent load
			b.StoreElem(w.cnt, k, c)
			b.StoreElem(w.rank, i, c)
		})
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *IS) InitMem(a *mem.Arena) {
	for i, k := range w.keyData() {
		a.Write(w.keys.Addr(int64(i)), k, 8)
	}
}

// Verify implements core.Workload.
func (w *IS) Verify(a *mem.Arena) error {
	if err := expect(a, w.rank, w.wantRank, "IS: rank"); err != nil {
		return fmt.Errorf("is: %w", err)
	}
	return nil
}
