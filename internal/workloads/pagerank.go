package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// PageRank parameters: fixed-point scale and damping (85/100 ≈ 870/1024).
const (
	prScale     = 4096 // Q: rank fixed-point unit
	prDampNum   = 870
	prDampShift = 10
)

// PageRank is the CRONO-style power-iteration PageRank in Q-fixed-point
// integer arithmetic (the IR is integer-only; the native reference
// mirrors the exact same arithmetic, so verification is bit-exact). The
// delinquent load is contrib[col[e]] in the rank-accumulation loop.
type PageRank struct {
	Label string
	G     *graphgen.Graph
	Iters int64

	shape    graphShape
	wantRank []int64

	ga           graphArrays
	rank0, rank1 ir.Array
	contrib      ir.Array
}

// NewPageRank builds the workload and the native reference ranks.
func NewPageRank(label string, g *graphgen.Graph, iters int64) *PageRank {
	w := &PageRank{Label: label, G: g, Iters: iters, shape: shapeOf(g)}
	w.wantRank = nativePageRank(g, iters)
	return w
}

func nativePageRank(g *graphgen.Graph, iters int64) []int64 {
	cur := make([]int64, g.N)
	next := make([]int64, g.N)
	contrib := make([]int64, g.N)
	for i := range cur {
		cur[i] = prScale
	}
	base := int64(prScale) * (1024 - prDampNum) >> prDampShift
	for it := int64(0); it < iters; it++ {
		for u := int64(0); u < g.N; u++ {
			d := g.RowPtr[u+1] - g.RowPtr[u]
			if d <= 0 {
				d = 1
			}
			contrib[u] = cur[u] / d
		}
		for u := int64(0); u < g.N; u++ {
			var sum int64
			for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
				sum += contrib[g.Col[e]]
			}
			next[u] = base + (sum*prDampNum)>>prDampShift
		}
		cur, next = next, cur
	}
	return cur
}

// Name implements core.Workload.
func (w *PageRank) Name() string { return w.Label }

// Build implements core.Workload.
func (w *PageRank) Build() (*ir.Program, error) {
	s := w.shape
	b := ir.NewBuilder(w.Label)
	w.ga = allocGraph(b, s, false)
	w.rank0 = b.Alloc("rank0", s.N, 8)
	w.rank1 = b.Alloc("rank1", s.N, 8)
	w.contrib = b.Alloc("contrib", s.N, 8)

	zero := b.Const(0)
	one := b.Const(1)
	n := b.Const(s.N)
	base := b.Const(int64(prScale) * (1024 - prDampNum) >> prDampShift)
	damp := b.Const(prDampNum)
	shift := b.Const(prDampShift)

	iteration := func(src, dst ir.Array) {
		// contrib[u] = src[u] / max(deg(u), 1)
		b.Loop("cu", zero, n, 1, func(u ir.Value) {
			r := b.LoadElem(src, u)
			rs := b.LoadElem(w.ga.rowptr, u)
			re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
			d := b.Sub(re, rs)
			dd := b.Select(b.Cmp(ir.PredGT, d, zero), d, one)
			b.StoreElem(w.contrib, u, b.Div(r, dd))
		})
		// dst[u] = base + damp * Σ contrib[col[e]]
		b.Loop("ru", zero, n, 1, func(u ir.Value) {
			b.StoreElem(dst, u, zero)
			rs := b.LoadElem(w.ga.rowptr, u)
			re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
			b.Loop("e", rs, re, 1, func(e ir.Value) {
				v := b.LoadElem(w.ga.col, e)
				c := b.Named(b.LoadElem(w.contrib, v), "contrib[col[e]]") // delinquent load
				acc := b.LoadElem(dst, u)
				b.StoreElem(dst, u, b.Add(acc, c))
			})
			sum := b.LoadElem(dst, u)
			b.StoreElem(dst, u, b.Add(base, b.Shr(b.Mul(sum, damp), shift)))
		})
	}

	b.Loop("it", zero, b.Const(w.Iters), 1, func(it ir.Value) {
		par := b.And(it, one)
		b.If(b.Cmp(ir.PredEQ, par, zero),
			func() { iteration(w.rank0, w.rank1) },
			func() { iteration(w.rank1, w.rank0) })
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *PageRank) InitMem(a *mem.Arena) {
	w.ga.initGraph(a, w.G)
	for i := int64(0); i < w.G.N; i++ {
		a.Write(w.rank0.Addr(i), prScale, 8)
	}
}

// Verify implements core.Workload.
func (w *PageRank) Verify(a *mem.Arena) error {
	final := w.rank0
	if w.Iters%2 == 1 {
		final = w.rank1
	}
	if err := expect(a, final, w.wantRank, w.Label+": rank"); err != nil {
		return fmt.Errorf("pagerank: %w", err)
	}
	return nil
}
