package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// bcScale is the fixed-point unit of the dependency accumulation.
const bcScale = int64(1) << 12

// BC is CRONO-style betweenness centrality (Brandes): for each of K
// source vertices, a forward level-synchronous phase computes shortest
// path counts (sigma), then a backward per-level sweep accumulates
// dependencies (delta) in fixed point. Both phases read per-vertex state
// through col[e] — dist, sigma and delta are all delinquent.
// Arithmetic (including any sigma overflow on hub-heavy graphs) is
// mirrored exactly by the native reference.
type BC struct {
	Label string
	G     *graphgen.Graph

	shape  graphShape // Sources and the native run's levels per source
	wantBC []int64

	ga                     graphArrays
	dist, sigma, delta, bc ir.Array
	fr0, fr1, meta         ir.Array
}

// NewBC builds the workload and the native reference.
func NewBC(label string, g *graphgen.Graph, sources []int64) *BC {
	w := &BC{Label: label, G: g, shape: shapeOf(g)}
	w.shape.Sources = sources
	w.wantBC, w.shape.Levels = nativeBC(g, sources)
	return w
}

func nativeBC(g *graphgen.Graph, sources []int64) ([]int64, []int64) {
	bc := make([]int64, g.N)
	maxLevels := make([]int64, len(sources))
	dist := make([]int64, g.N)
	sigma := make([]int64, g.N)
	delta := make([]int64, g.N)
	for si, src := range sources {
		for i := int64(0); i < g.N; i++ {
			dist[i], sigma[i], delta[i] = -1, 0, 0
		}
		dist[src], sigma[src] = 0, 1
		frontier := []int64{src}
		levels := int64(0)
		for lvl := int64(0); len(frontier) > 0; lvl++ {
			levels = lvl + 1
			var next []int64
			for _, u := range frontier {
				su := sigma[u]
				for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
					v := g.Col[e]
					if dist[v] < 0 {
						dist[v] = lvl + 1
						next = append(next, v)
					}
					if dist[v] == lvl+1 {
						sigma[v] += su
					}
				}
			}
			frontier = next
		}
		maxLevels[si] = levels
		// Backward dependency accumulation, level sweeps.
		for lvl := levels - 2; lvl >= 0; lvl-- {
			for u := int64(0); u < g.N; u++ {
				if dist[u] != lvl {
					continue
				}
				su := sigma[u]
				var acc int64
				for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
					v := g.Col[e]
					if dist[v] == lvl+1 && sigma[v] != 0 {
						acc += su * (bcScale + delta[v]) / sigma[v]
					}
				}
				delta[u] += acc
				if u != src {
					bc[u] += delta[u]
				}
			}
		}
	}
	return bc, maxLevels
}

// Name implements core.Workload.
func (w *BC) Name() string { return w.Label }

// Build implements core.Workload.
func (w *BC) Build() (*ir.Program, error) {
	s := w.shape
	b := ir.NewBuilder(w.Label)
	w.ga = allocGraph(b, s, false)
	w.dist = b.Alloc("dist", s.N, 8)
	w.sigma = b.Alloc("sigma", s.N, 8)
	w.delta = b.Alloc("delta", s.N, 8)
	w.bc = b.Alloc("bc", s.N, 8)
	w.fr0 = b.Alloc("fr0", s.N, 8)
	w.fr1 = b.Alloc("fr1", s.N, 8)
	w.meta = b.Alloc("meta", 2, 8)

	zero := b.Const(0)
	one := b.Const(1)
	n := b.Const(s.N)
	scale := b.Const(bcScale)
	negOne := b.Const(-1)

	forwardSweep := func(lvl ir.Value, cur ir.Array, curIdx int64, next ir.Array, nextIdx int64) {
		csize := b.LoadElem(w.meta, b.Const(curIdx))
		b.StoreElem(w.meta, b.Const(nextIdx), zero)
		b.Loop("fi", zero, csize, 1, func(fi ir.Value) {
			u := b.LoadElem(cur, fi)
			su := b.LoadElem(w.sigma, u)
			rs := b.LoadElem(w.ga.rowptr, u)
			re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
			lvl1 := b.Add(lvl, one)
			b.Loop("e", rs, re, 1, func(e ir.Value) {
				v := b.LoadElem(w.ga.col, e)
				d := b.Named(b.LoadElem(w.dist, v), "dist[col[e]]") // delinquent load
				b.If(b.Cmp(ir.PredLT, d, zero), func() {
					b.StoreElem(w.dist, v, lvl1)
					ns := b.LoadElem(w.meta, b.Const(nextIdx))
					b.StoreElem(next, ns, v)
					b.StoreElem(w.meta, b.Const(nextIdx), b.Add(ns, one))
				}, nil)
				d2 := b.LoadElem(w.dist, v)
				b.If(b.Cmp(ir.PredEQ, d2, lvl1), func() {
					sv := b.LoadElem(w.sigma, v)
					b.StoreElem(w.sigma, v, b.Add(sv, su))
				}, nil)
			})
		})
	}

	// One source = one unrolled stage (sources are few; unrolling keeps
	// every loop canonical).
	for si, src := range s.Sources {
		srcC := b.Const(src)
		// Reset per-source state.
		b.Loop(fmt.Sprintf("rst%d", si), zero, n, 1, func(u ir.Value) {
			b.StoreElem(w.dist, u, negOne)
			b.StoreElem(w.sigma, u, zero)
			b.StoreElem(w.delta, u, zero)
		})
		b.StoreElem(w.dist, srcC, zero)
		b.StoreElem(w.sigma, srcC, one)
		b.StoreElem(w.fr0, zero, srcC)
		b.StoreElem(w.meta, zero, one)
		b.StoreElem(w.meta, one, zero)

		levels := s.Levels[si]
		b.Loop(fmt.Sprintf("lvl%d", si), zero, b.Const(levels), 1, func(lvl ir.Value) {
			par := b.And(lvl, one)
			b.If(b.Cmp(ir.PredEQ, par, zero),
				func() { forwardSweep(lvl, w.fr0, 0, w.fr1, 1) },
				func() { forwardSweep(lvl, w.fr1, 1, w.fr0, 0) })
		})

		// Backward: lvl = levels-2 ... 0 expressed as an ascending loop.
		if levels >= 2 {
			b.Loop(fmt.Sprintf("back%d", si), zero, b.Const(levels-1), 1, func(l ir.Value) {
				lvl := b.Sub(b.Const(levels-2), l)
				lvl1 := b.Add(lvl, one)
				b.Loop("bu", zero, n, 1, func(u ir.Value) {
					du := b.LoadElem(w.dist, u)
					b.If(b.Cmp(ir.PredEQ, du, lvl), func() {
						su := b.LoadElem(w.sigma, u)
						rs := b.LoadElem(w.ga.rowptr, u)
						re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
						b.Loop("be", rs, re, 1, func(e ir.Value) {
							v := b.LoadElem(w.ga.col, e)
							dv := b.Named(b.LoadElem(w.dist, v), "dist[col[e]] (backward)") // delinquent load
							b.If(b.Cmp(ir.PredEQ, dv, lvl1), func() {
								sv := b.LoadElem(w.sigma, v)
								b.If(b.Cmp(ir.PredNE, sv, zero), func() {
									dl := b.LoadElem(w.delta, v)
									term := b.Div(b.Mul(su, b.Add(scale, dl)), sv)
									cur := b.LoadElem(w.delta, u)
									b.StoreElem(w.delta, u, b.Add(cur, term))
								}, nil)
							}, nil)
						})
						b.If(b.Cmp(ir.PredNE, u, srcC), func() {
							acc := b.LoadElem(w.bc, u)
							b.StoreElem(w.bc, u, b.Add(acc, b.LoadElem(w.delta, u)))
						}, nil)
					}, nil)
				})
			})
		}
	}
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *BC) InitMem(a *mem.Arena) {
	w.ga.initGraph(a, w.G)
	// All working arrays are (re)initialized by the program itself.
}

// Verify implements core.Workload.
func (w *BC) Verify(a *mem.Arena) error {
	if err := expect(a, w.bc, w.wantBC, w.Label+": bc"); err != nil {
		return fmt.Errorf("bc: %w", err)
	}
	return nil
}
