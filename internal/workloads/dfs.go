package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// DFS is the CRONO-style iterative depth-first traversal with an
// explicit stack. The worklist loop is condition-controlled (no counted
// induction variable), so only the inner edge loop can host prefetches —
// matching the paper's Figure 10, where DFS is the one application that
// profits from inner-loop injection.
type DFS struct {
	Label  string
	G      *graphgen.Graph
	Source int64

	shape       graphShape
	wantVisited []int64
	wantOrder   []int64

	ga                        graphArrays
	visited, stack, ord, meta ir.Array // meta: [0] top, [1] visit counter
}

// NewDFS builds the workload and its native reference.
func NewDFS(label string, g *graphgen.Graph, source int64) *DFS {
	w := &DFS{Label: label, G: g, Source: source, shape: shapeOf(g)}
	w.wantVisited, w.wantOrder = nativeDFS(g, source)
	return w
}

// nativeDFS mirrors the IR program exactly: pop u, record its visit
// order, push unvisited neighbours in adjacency order (marking them
// visited at push time).
func nativeDFS(g *graphgen.Graph, src int64) (visited, order []int64) {
	visited = make([]int64, g.N)
	order = make([]int64, g.N)
	for i := range order {
		order[i] = -1
	}
	stack := []int64{src}
	visited[src] = 1
	cnt := int64(0)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order[u] = cnt
		cnt++
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			v := g.Col[e]
			if visited[v] == 0 {
				visited[v] = 1
				stack = append(stack, v)
			}
		}
	}
	return visited, order
}

// Name implements core.Workload.
func (w *DFS) Name() string { return w.Label }

// Build implements core.Workload.
func (w *DFS) Build() (*ir.Program, error) {
	s := w.shape
	b := ir.NewBuilder(w.Label)
	w.ga = allocGraph(b, s, false)
	w.visited = b.Alloc("visited", s.N, 8)
	w.stack = b.Alloc("stack", s.N, 8)
	w.ord = b.Alloc("order", s.N, 8)
	w.meta = b.Alloc("meta", 2, 8)

	zero := b.Const(0)
	one := b.Const(1)

	b.While("dfs",
		func() ir.Value {
			top := b.LoadElem(w.meta, zero)
			return b.Cmp(ir.PredGT, top, zero)
		},
		func() {
			top := b.LoadElem(w.meta, zero)
			top1 := b.Sub(top, one)
			u := b.LoadElem(w.stack, top1)
			b.StoreElem(w.meta, zero, top1)
			cnt := b.LoadElem(w.meta, one)
			b.StoreElem(w.ord, u, cnt)
			b.StoreElem(w.meta, one, b.Add(cnt, one))

			rs := b.LoadElem(w.ga.rowptr, u)
			re := b.LoadElem(w.ga.rowptr, b.Add(u, one))
			b.Loop("e", rs, re, 1, func(e ir.Value) {
				v := b.LoadElem(w.ga.col, e)
				vis := b.Named(b.LoadElem(w.visited, v), "visited[col[e]]") // delinquent load
				b.If(b.Cmp(ir.PredEQ, vis, zero), func() {
					b.StoreElem(w.visited, v, one)
					t := b.LoadElem(w.meta, zero)
					b.StoreElem(w.stack, t, v)
					b.StoreElem(w.meta, zero, b.Add(t, one))
				}, nil)
			})
		})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *DFS) InitMem(a *mem.Arena) {
	w.ga.initGraph(a, w.G)
	for i := int64(0); i < w.G.N; i++ {
		a.Write(w.ord.Addr(i), -1, 8)
	}
	a.Write(w.visited.Addr(w.Source), 1, 8)
	a.Write(w.stack.Addr(0), w.Source, 8)
	a.Write(w.meta.Addr(0), 1, 8)
	a.Write(w.meta.Addr(1), 0, 8)
}

// Verify implements core.Workload.
func (w *DFS) Verify(a *mem.Arena) error {
	if err := expect(a, w.visited, w.wantVisited, w.Label+": visited"); err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	if err := expect(a, w.ord, w.wantOrder, w.Label+": order"); err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	return nil
}
