package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// ssspInf is the unreachable distance sentinel.
const ssspInf = int64(1) << 40

// SSSP is the CRONO-style Bellman-Ford single-source shortest paths:
// full edge relaxation sweeps guarded by a convergence flag. The
// delinquent load is dist[col[e]] read for the relaxation compare.
type SSSP struct {
	Label  string
	G      *graphgen.Graph
	Source int64

	shape    graphShape // Rounds: the native run's round budget
	wantDist []int64

	ga         graphArrays
	dist, meta ir.Array // meta[0]: changed flag
}

// NewSSSP builds the workload on g's edge weights (g.Weighted); the
// round budget comes from the native run (rounds to convergence + 1 idle
// round).
func NewSSSP(label string, g *graphgen.Graph, source int64) *SSSP {
	w := &SSSP{Label: label, G: g.Weighted(), Source: source, shape: shapeOf(g)}
	w.wantDist, w.shape.Rounds = nativeSSSP(g, source)
	return w
}

func nativeSSSP(g *graphgen.Graph, src int64) ([]int64, int64) {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = ssspInf
	}
	dist[src] = 0
	rounds := int64(0)
	for changed := true; changed; rounds++ {
		changed = false
		for u := int64(0); u < g.N; u++ {
			du := dist[u]
			if du >= ssspInf {
				continue
			}
			for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
				v := g.Col[e]
				if alt := du + g.Weight[e]; alt < dist[v] {
					dist[v] = alt
					changed = true
				}
			}
		}
	}
	return dist, rounds + 1
}

// Name implements core.Workload.
func (w *SSSP) Name() string { return w.Label }

// Build implements core.Workload.
func (w *SSSP) Build() (*ir.Program, error) {
	s := w.shape
	b := ir.NewBuilder(w.Label)
	w.ga = allocGraph(b, s, true)
	w.dist = b.Alloc("dist", s.N, 8)
	w.meta = b.Alloc("meta", 1, 8)

	zero := b.Const(0)
	one := b.Const(1)
	inf := b.Const(ssspInf)
	n := b.Const(s.N)

	b.Loop("round", zero, b.Const(s.Rounds), 1, func(r ir.Value) {
		chg := b.LoadElem(w.meta, zero)
		b.If(b.Cmp(ir.PredEQ, chg, one), func() {
			b.StoreElem(w.meta, zero, zero)
			b.Loop("u", zero, n, 1, func(u ir.Value) {
				du := b.LoadElem(w.dist, u)
				b.If(b.Cmp(ir.PredLT, du, inf), func() {
					rs := b.LoadElem(w.ga.rowptr, u)
					re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
					b.Loop("e", rs, re, 1, func(e ir.Value) {
						v := b.LoadElem(w.ga.col, e)
						wt := b.LoadElem(w.ga.weight, e)
						alt := b.Add(du, wt)
						dv := b.Named(b.LoadElem(w.dist, v), "dist[col[e]]") // delinquent load
						b.If(b.Cmp(ir.PredLT, alt, dv), func() {
							b.StoreElem(w.dist, v, alt)
							b.StoreElem(w.meta, zero, one)
						}, nil)
					})
				}, nil)
			})
		}, nil)
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *SSSP) InitMem(a *mem.Arena) {
	w.ga.initGraph(a, w.G)
	for i := int64(0); i < w.G.N; i++ {
		a.Write(w.dist.Addr(i), ssspInf, 8)
	}
	a.Write(w.dist.Addr(w.Source), 0, 8)
	a.Write(w.meta.Addr(0), 1, 8)
}

// Verify implements core.Workload.
func (w *SSSP) Verify(a *mem.Arena) error {
	if err := expect(a, w.dist, w.wantDist, w.Label+": dist"); err != nil {
		return fmt.Errorf("sssp: %w", err)
	}
	return nil
}
