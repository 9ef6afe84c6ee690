package workloads

import (
	"fmt"
	"math/rand"

	"aptget/internal/ir"
	"aptget/internal/mem"
)

// hashMul is the multiplicative hashing constant (Knuth/NPO-style).
const hashMul = 2654435761

// HashJoin is the no-partitioning (NPO) main-memory hash join of
// Balkesen et al., in the paper's two variants: HJ2 (2 elements per
// bucket) and HJ8 (8 elements per bucket). The build phase fills a
// bucketed hash table from relation R; the probe phase scans each
// bucket for relation S's keys. The delinquent load is the bucket-key
// probe HTkey[h*B+s] — indirect through the streamed probe key and the
// hash computation — inside a tiny inner loop of trip count B, the
// paper's prime outer-injection case (HJ8 reaches 1.98× in Figure 6).
type HashJoin struct {
	Label      string
	Buckets    int64 // power of two
	BucketSize int64 // B: 2 (HJ2) or 8 (HJ8)
	BuildN     int64
	ProbeN     int64
	Seed       int64

	wantMatches int64
	wantPaySum  int64

	rkey, skey                ir.Array
	htKey, htPay, htCnt, meta ir.Array // meta: [0]=matches, [1]=payload sum
}

// NewHashJoin builds an HJ2/HJ8 instance. The hash table
// (buckets×bucketSize keys + payloads) exceeds the LLC.
func NewHashJoin(label string, buckets, bucketSize, buildN, probeN int64) *HashJoin {
	w := newHashJoin(label, buckets, bucketSize, buildN, probeN)
	w.wantMatches, w.wantPaySum = w.native()
	return w
}

// newHashJoin is NewHashJoin without the native reference: enough to
// Build.
func newHashJoin(label string, buckets, bucketSize, buildN, probeN int64) *HashJoin {
	return &HashJoin{
		Label: label, Buckets: buckets, BucketSize: bucketSize,
		BuildN: buildN, ProbeN: probeN, Seed: 53,
	}
}

func (w *HashJoin) data() (rkeys, skeys []int64) {
	rng := rand.New(rand.NewSource(w.Seed))
	keyRange := w.BuildN * 2 // ~50% of probes hit
	rkeys = make([]int64, w.BuildN)
	for i := range rkeys {
		rkeys[i] = rng.Int63n(keyRange)
	}
	skeys = make([]int64, w.ProbeN)
	for i := range skeys {
		skeys[i] = rng.Int63n(keyRange)
	}
	return rkeys, skeys
}

func (w *HashJoin) hash(k int64) int64 {
	return (k * hashMul) & (w.Buckets - 1)
}

// native mirrors the IR program exactly: build with overflow drop (a
// full bucket discards the tuple, as NPO's fixed-size buckets do when
// sized generously), then probe counting matches and summing payloads.
func (w *HashJoin) native() (matches, paySum int64) {
	rkeys, skeys := w.data()
	htKey := make([]int64, w.Buckets*w.BucketSize)
	htPay := make([]int64, w.Buckets*w.BucketSize)
	htCnt := make([]int64, w.Buckets)
	for i := range htKey {
		htKey[i] = -1
	}
	for i, k := range rkeys {
		h := w.hash(k)
		c := htCnt[h]
		if c < w.BucketSize {
			htKey[h*w.BucketSize+c] = k
			htPay[h*w.BucketSize+c] = int64(i)
			htCnt[h] = c + 1
		}
	}
	for _, k := range skeys {
		h := w.hash(k)
		for s := int64(0); s < w.BucketSize; s++ {
			if htKey[h*w.BucketSize+s] == k {
				matches++
				paySum += htPay[h*w.BucketSize+s]
			}
		}
	}
	return matches, paySum
}

// Name implements core.Workload.
func (w *HashJoin) Name() string { return w.Label }

// Build implements core.Workload.
func (w *HashJoin) Build() (*ir.Program, error) {
	b := ir.NewBuilder(w.Label)
	w.rkey = b.Alloc("rkey", w.BuildN, 8)
	w.skey = b.Alloc("skey", w.ProbeN, 8)
	w.htKey = b.Alloc("htkey", w.Buckets*w.BucketSize, 8)
	w.htPay = b.Alloc("htpay", w.Buckets*w.BucketSize, 8)
	w.htCnt = b.Alloc("htcnt", w.Buckets, 8)
	w.meta = b.Alloc("meta", 2, 8)

	zero := b.Const(0)
	one := b.Const(1)
	bsz := b.Const(w.BucketSize)
	mask := b.Const(w.Buckets - 1)
	mul := b.Const(hashMul)

	hash := func(k ir.Value) ir.Value { return b.And(b.Mul(k, mul), mask) }

	// Build phase.
	b.Loop("build", zero, b.Const(w.BuildN), 1, func(i ir.Value) {
		k := b.LoadElem(w.rkey, i)
		h := hash(k)
		c := b.LoadElem(w.htCnt, h) // delinquent (build side)
		b.If(b.Cmp(ir.PredLT, c, bsz), func() {
			slot := b.Add(b.Mul(h, bsz), c)
			b.StoreElem(w.htKey, slot, k)
			b.StoreElem(w.htPay, slot, i)
			b.StoreElem(w.htCnt, h, b.Add(c, one))
		}, nil)
	})

	// Probe phase: the paper's hot loop.
	b.Loop("probe", zero, b.Const(w.ProbeN), 1, func(j ir.Value) {
		k := b.LoadElem(w.skey, j)
		h := hash(k)
		bktBase := b.Mul(h, bsz)
		b.Loop("slot", zero, bsz, 1, func(s ir.Value) {
			hk := b.Named(b.LoadElem(w.htKey, b.Add(bktBase, s)), "HTkey[h*B+s]") // delinquent load
			b.If(b.Cmp(ir.PredEQ, hk, k), func() {
				m := b.LoadElem(w.meta, zero)
				b.StoreElem(w.meta, zero, b.Add(m, one))
				pay := b.LoadElem(w.htPay, b.Add(bktBase, s))
				ps := b.LoadElem(w.meta, one)
				b.StoreElem(w.meta, one, b.Add(ps, pay))
			}, nil)
		})
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *HashJoin) InitMem(a *mem.Arena) {
	rkeys, skeys := w.data()
	for i, k := range rkeys {
		a.Write(w.rkey.Addr(int64(i)), k, 8)
	}
	for i, k := range skeys {
		a.Write(w.skey.Addr(int64(i)), k, 8)
	}
	for i := int64(0); i < w.htKey.Count; i++ {
		a.Write(w.htKey.Addr(i), -1, 8)
	}
}

// Verify implements core.Workload.
func (w *HashJoin) Verify(a *mem.Arena) error {
	if err := expectScalar(a, w.meta, 0, w.wantMatches, w.Label+": matches"); err != nil {
		return fmt.Errorf("hashjoin: %w", err)
	}
	if err := expectScalar(a, w.meta, 1, w.wantPaySum, w.Label+": payload sum"); err != nil {
		return fmt.Errorf("hashjoin: %w", err)
	}
	return nil
}
