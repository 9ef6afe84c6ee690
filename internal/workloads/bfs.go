package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// BFS is the CRONO-style level-synchronous breadth-first search: two
// frontier arrays swapped by level parity, with the classic delinquent
// load dist[col[e]] inside a low-trip-count edge loop — the paper's
// flagship outer-injection case (§2.4, Figure 10). Graph500's kernel is
// the same program on a Kronecker graph (see registry.go).
type BFS struct {
	Label  string
	G      *graphgen.Graph
	Source int64

	shape    graphShape // Levels: the native run's level count
	wantDist []int64

	ga             graphArrays
	dist, fr0, fr1 ir.Array
	meta           ir.Array // [0] size of fr0, [1] size of fr1
}

// NewBFS builds the workload; the level budget and reference distances
// come from a native BFS run.
func NewBFS(label string, g *graphgen.Graph, source int64) *BFS {
	w := &BFS{Label: label, G: g, Source: source, shape: shapeOf(g)}
	var levels int64
	w.wantDist, levels = nativeBFS(g, source)
	w.shape.Levels = []int64{levels}
	return w
}

// nativeBFS computes reference distances and the number of levels.
func nativeBFS(g *graphgen.Graph, src int64) ([]int64, int64) {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int64{src}
	levels := int64(0)
	for lvl := int64(0); len(frontier) > 0; lvl++ {
		levels = lvl + 1
		var next []int64
		for _, u := range frontier {
			for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
				v := g.Col[e]
				if dist[v] < 0 {
					dist[v] = lvl + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist, levels
}

// Name implements core.Workload.
func (w *BFS) Name() string { return w.Label }

// Build implements core.Workload.
func (w *BFS) Build() (*ir.Program, error) {
	s := w.shape
	b := ir.NewBuilder(w.Label)
	w.ga = allocGraph(b, s, false)
	w.dist = b.Alloc("dist", s.N, 8)
	w.fr0 = b.Alloc("fr0", s.N, 8)
	w.fr1 = b.Alloc("fr1", s.N, 8)
	w.meta = b.Alloc("meta", 2, 8)

	zero := b.Const(0)
	one := b.Const(1)

	sweep := func(lvl ir.Value, cur ir.Array, curIdx int64, next ir.Array, nextIdx int64) {
		csize := b.LoadElem(w.meta, b.Const(curIdx))
		b.StoreElem(w.meta, b.Const(nextIdx), zero)
		b.Loop("fi", zero, csize, 1, func(fi ir.Value) {
			u := b.LoadElem(cur, fi)
			rs := b.LoadElem(w.ga.rowptr, u)
			re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
			b.Loop("e", rs, re, 1, func(e ir.Value) {
				v := b.LoadElem(w.ga.col, e)
				d := b.Named(b.LoadElem(w.dist, v), "dist[col[e]]") // delinquent load
				b.If(b.Cmp(ir.PredLT, d, zero), func() {
					b.StoreElem(w.dist, v, b.Add(lvl, one))
					ns := b.LoadElem(w.meta, b.Const(nextIdx))
					b.StoreElem(next, ns, v)
					b.StoreElem(w.meta, b.Const(nextIdx), b.Add(ns, one))
				}, nil)
			})
		})
	}

	b.Loop("lvl", zero, b.Const(s.Levels[0]), 1, func(lvl ir.Value) {
		par := b.And(lvl, one)
		b.If(b.Cmp(ir.PredEQ, par, zero),
			func() { sweep(lvl, w.fr0, 0, w.fr1, 1) },
			func() { sweep(lvl, w.fr1, 1, w.fr0, 0) })
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *BFS) InitMem(a *mem.Arena) {
	w.ga.initGraph(a, w.G)
	for i := int64(0); i < w.G.N; i++ {
		a.Write(w.dist.Addr(i), -1, 8)
	}
	a.Write(w.dist.Addr(w.Source), 0, 8)
	a.Write(w.fr0.Addr(0), w.Source, 8)
	a.Write(w.meta.Addr(0), 1, 8)
	a.Write(w.meta.Addr(1), 0, 8)
}

// Verify implements core.Workload.
func (w *BFS) Verify(a *mem.Arena) error {
	if err := expect(a, w.dist, w.wantDist, w.Label+": dist"); err != nil {
		return fmt.Errorf("bfs: %w", err)
	}
	return nil
}
