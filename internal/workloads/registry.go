package workloads

import (
	"fmt"

	"aptget/internal/core"
	"aptget/internal/graphgen"
	"aptget/internal/ir"
)

// Entry describes one benchmark of the paper's Table 3.
type Entry struct {
	Key         string // figure x-axis key
	Description string // Table 3 description
	Dataset     string // dataset label (graph workloads)

	// New generates the workload's dataset and runs its native
	// reference: what every path that executes the program needs.
	New func() core.Workload

	// Program builds the program New().Build() builds, PCs and array
	// layout alike, without generating the dataset: the graph
	// workloads read their shape from the pins (pins.go), the others
	// are constructed without their native reference. Turning a
	// received profile into plans needs only this program.
	Program func() (*ir.Program, error)
}

// Registry returns the paper's application list (Table 3): the five
// CRONO graph kernels, NAS IS and CG, HPCC RandomAccess, the two hash
// join variants, and Graph500. Dataset sizes follow graphgen's scaled
// Table 4 stand-ins; the heavier kernels (SSSP, BC) run on smaller
// instances of the same graph classes to keep full experiment sweeps
// fast (DESIGN.md §2).
func Registry() []Entry {
	return []Entry{
		{
			Key: "BFS", Description: "breadth-first search (CRONO)", Dataset: "WG",
			New: func() core.Workload {
				g := mustDataset("WG")
				return NewBFS("BFS", g, TopDegreeVertices(g, 1)[0])
			},
			Program: func() (*ir.Program, error) {
				return (&BFS{Label: "BFS", shape: graphPins["BFS"]}).Build()
			},
		},
		{
			Key: "DFS", Description: "depth-first traversal (CRONO)", Dataset: "P2P",
			New: func() core.Workload {
				g := mustDataset("P2P")
				return NewDFS("DFS", g, TopDegreeVertices(g, 1)[0])
			},
			Program: func() (*ir.Program, error) {
				return (&DFS{Label: "DFS", shape: graphPins["DFS"]}).Build()
			},
		},
		{
			Key: "PR", Description: "PageRank (CRONO)", Dataset: "WN",
			New: func() core.Workload {
				return NewPageRank("PR", mustDataset("WN"), 2)
			},
			Program: func() (*ir.Program, error) {
				return (&PageRank{Label: "PR", Iters: 2, shape: graphPins["PR"]}).Build()
			},
		},
		{
			Key: "BC", Description: "betweenness centrality (CRONO)", Dataset: "LBE",
			New: func() core.Workload {
				g := mustDataset("LBE")
				return NewBC("BC", g, TopDegreeVertices(g, 1))
			},
			Program: func() (*ir.Program, error) {
				return (&BC{Label: "BC", shape: graphPins["BC"]}).Build()
			},
		},
		{
			Key: "SSSP", Description: "single-source shortest paths (CRONO)", Dataset: "P2P-s",
			New: func() core.Workload {
				g := graphgen.Uniform("P2P-s", 32_000, 2, 1102)
				return NewSSSP("SSSP", g, TopDegreeVertices(g, 1)[0])
			},
			Program: func() (*ir.Program, error) {
				return (&SSSP{Label: "SSSP", shape: graphPins["SSSP"]}).Build()
			},
		},
		{
			Key: "IS", Description: "integer (bucket) sort (NAS)", Dataset: "",
			New: func() core.Workload {
				return NewIS(200_000, 1<<17, 2)
			},
			Program: func() (*ir.Program, error) {
				return newIS(200_000, 1<<17, 2).Build()
			},
		},
		{
			Key: "CG", Description: "conjugate gradient / SpMV (NAS)", Dataset: "",
			New: func() core.Workload {
				return NewCG(48_000, 8, 2)
			},
			Program: func() (*ir.Program, error) {
				return newCG(48_000, 8, 2).Build()
			},
		},
		{
			Key: "randAcc", Description: "RandomAccess / GUPS (HPCC)", Dataset: "",
			New: func() core.Workload {
				return NewRandAcc(20, 300_000)
			},
			Program: func() (*ir.Program, error) {
				return newRandAcc(20, 300_000).Build()
			},
		},
		{
			Key: "HJ2", Description: "NPO hash join, 2 elems/bucket", Dataset: "",
			New: func() core.Workload {
				return NewHashJoin("HJ2", 1<<18, 2, 200_000, 300_000)
			},
			Program: func() (*ir.Program, error) {
				return newHashJoin("HJ2", 1<<18, 2, 200_000, 300_000).Build()
			},
		},
		{
			Key: "HJ8", Description: "NPO hash join, 8 elems/bucket", Dataset: "",
			New: func() core.Workload {
				return NewHashJoin("HJ8", 1<<16, 8, 200_000, 150_000)
			},
			Program: func() (*ir.Program, error) {
				return newHashJoin("HJ8", 1<<16, 8, 200_000, 150_000).Build()
			},
		},
		{
			Key: "G500", Description: "Graph500 BFS (Kronecker)", Dataset: "KRON",
			New: func() core.Workload {
				g := mustDataset("KRON")
				return NewBFS("G500", g, TopDegreeVertices(g, 1)[0])
			},
			Program: func() (*ir.Program, error) {
				return (&BFS{Label: "G500", shape: graphPins["G500"]}).Build()
			},
		},
	}
}

// ByKey returns the registry entry with the given key, searching the
// Table 3 corpus, the phase-changing corpus (PhasedRegistry), and the
// selection-adversarial corpus (AdversarialRegistry).
func ByKey(key string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Key == key {
			return e, true
		}
	}
	for _, e := range PhasedRegistry() {
		if e.Key == key {
			return e, true
		}
	}
	for _, e := range AdversarialRegistry() {
		if e.Key == key {
			return e, true
		}
	}
	return Entry{}, false
}

// TopDegreeVertices returns the k vertices with the highest out-degree —
// well-connected BFS/BC sources on power-law graphs.
func TopDegreeVertices(g *graphgen.Graph, k int) []int64 {
	out := make([]int64, 0, k)
	used := make(map[int64]bool, k)
	for len(out) < k {
		best, bestDeg := int64(-1), int64(-1)
		for u := int64(0); u < g.N; u++ {
			if !used[u] && g.Degree(u) > bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}

func mustDataset(name string) *graphgen.Graph {
	d, ok := graphgen.ByName(name)
	if !ok {
		panic(fmt.Sprintf("workloads: unknown dataset %s", name))
	}
	return d.Make()
}

// withPrograms sets each entry's Program to New().Build(). It serves the
// corpora whose constructors generate no data and run no reference
// (InitMem writes their arrays from closed forms, Verify recomputes the
// result), so the workload itself is already the cheap way to the
// program.
func withPrograms(es []Entry) []Entry {
	for i := range es {
		mk := es[i].New
		es[i].Program = func() (*ir.Program, error) { return mk().Build() }
	}
	return es
}
