// Package workloads implements the paper's Table 3 applications as IR
// programs with native Go reference implementations for verification:
// the CRONO-style graph kernels (BFS, DFS, PageRank, Betweenness
// Centrality, SSSP), NAS IS and CG, HPCC RandomAccess, the NPO hash join
// in its 2- and 8-elements-per-bucket variants, Graph500 BFS on a
// Kronecker graph, and the §2.1 microbenchmark (Listing 1).
//
// Every workload builds deterministically (identical instruction
// sequence, hence identical PCs, across Build calls) so that prefetch
// plans computed on a profiled build apply to fresh builds, and every
// workload verifies the optimized program's results against the native
// reference — prefetch injection must never change semantics.
package workloads

import (
	"fmt"

	"aptget/internal/graphgen"
	"aptget/internal/ir"
	"aptget/internal/mem"
)

// graphShape is everything a graph workload's Build reads of its
// dataset and its native run: sizes, loop trip counts and IR constants,
// never the edges themselves. The constructors fill it from the
// generated graph; Entry.Program fills it from the pins (pins.go), so
// the miss path builds the program without generating the dataset.
type graphShape struct {
	N, M    int64   // vertices and edges
	Levels  []int64 // BFS: the level count; BC: one per source
	Rounds  int64   // SSSP: relaxation rounds, convergence included
	Sources []int64 // BC: the source vertices, emitted as constants
}

// shapeOf reads the dataset scalars of g.
func shapeOf(g *graphgen.Graph) graphShape { return graphShape{N: g.N, M: g.M()} }

// graphArrays holds the CSR arrays of a graph workload.
type graphArrays struct {
	rowptr, col ir.Array
	weight      ir.Array // only when allocated with weights
}

// allocGraph reserves the CSR arrays in the program arena.
func allocGraph(b *ir.Builder, s graphShape, withWeights bool) graphArrays {
	ga := graphArrays{
		rowptr: b.Alloc("rowptr", s.N+1, 8),
		col:    b.Alloc("col", s.M, 8),
	}
	if withWeights {
		ga.weight = b.Alloc("weight", s.M, 8)
	}
	return ga
}

// initGraph writes the CSR arrays into simulated memory.
func (ga *graphArrays) initGraph(a *mem.Arena, g *graphgen.Graph) {
	for i, v := range g.RowPtr {
		a.Write(ga.rowptr.Addr(int64(i)), v, 8)
	}
	for i, v := range g.Col {
		a.Write(ga.col.Addr(int64(i)), v, 8)
	}
	if ga.weight.Count > 0 {
		for i, w := range g.Weight {
			a.Write(ga.weight.Addr(int64(i)), w, 8)
		}
	}
}

// expect compares a simulated memory array against a native slice.
func expect(a *mem.Arena, arr ir.Array, want []int64, what string) error {
	if int64(len(want)) != arr.Count {
		return fmt.Errorf("%s: length mismatch %d vs %d", what, len(want), arr.Count)
	}
	for i := int64(0); i < arr.Count; i++ {
		if got := a.Read(arr.Addr(i), 8); got != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, want[i])
		}
	}
	return nil
}

// expectScalar compares one simulated value.
func expectScalar(a *mem.Arena, arr ir.Array, idx int64, want int64, what string) error {
	if got := a.Read(arr.Addr(idx), 8); got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}
