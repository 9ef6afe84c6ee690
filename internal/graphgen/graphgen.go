// Package graphgen produces the deterministic synthetic graphs that stand
// in for the paper's datasets: the SNAP graphs of Table 4 (web crawls,
// p2p networks, road networks, a social network) and the Graph500
// Kronecker graph. Real SNAP downloads are unavailable offline, so each
// dataset is replaced by a generator matching its structural class and a
// size scaled together with the simulated caches (DESIGN.md §2): what
// matters for the paper's results is that the per-vertex state array
// exceeds the LLC and that the degree distribution (hence inner-loop
// trip count) matches the original's character.
package graphgen

import (
	"fmt"
	"math/rand"
	"slices"
)

// Graph is a directed graph in compressed sparse row form — the layout
// every CRONO-style kernel traverses.
type Graph struct {
	Name   string
	N      int64   // vertices
	RowPtr []int64 // length N+1
	Col    []int64 // length M
	Weight []int64 // length M; small positive edge weights (SSSP)
}

// M returns the edge count.
func (g *Graph) M() int64 { return int64(len(g.Col)) }

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.N)
}

// Degree returns the out-degree of vertex u.
func (g *Graph) Degree(u int64) int64 { return g.RowPtr[u+1] - g.RowPtr[u] }

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if int64(len(g.RowPtr)) != g.N+1 {
		return fmt.Errorf("graphgen: %s: rowptr length %d != N+1=%d", g.Name, len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 || g.RowPtr[g.N] != g.M() {
		return fmt.Errorf("graphgen: %s: rowptr endpoints wrong", g.Name)
	}
	for i := int64(0); i < g.N; i++ {
		if g.RowPtr[i] > g.RowPtr[i+1] {
			return fmt.Errorf("graphgen: %s: rowptr not monotone at %d", g.Name, i)
		}
	}
	for i, v := range g.Col {
		if v < 0 || v >= g.N {
			return fmt.Errorf("graphgen: %s: col[%d]=%d out of range", g.Name, i, v)
		}
	}
	if g.Weight != nil && len(g.Weight) != len(g.Col) {
		return fmt.Errorf("graphgen: %s: weight length mismatch", g.Name)
	}
	return nil
}

// fromEdges builds a CSR graph from an edge list, sorting adjacency for
// determinism and assigning weights in [1, 15].
func fromEdges(name string, n int64, src, dst []int64, seed int64) *Graph {
	deg := make([]int64, n)
	for _, u := range src {
		deg[u]++
	}
	row := make([]int64, n+1)
	for i := int64(0); i < n; i++ {
		row[i+1] = row[i] + deg[i]
	}
	col := make([]int64, len(src))
	next := append([]int64(nil), row[:n]...)
	for i, u := range src {
		col[next[u]] = dst[i]
		next[u]++
	}
	for i := int64(0); i < n; i++ {
		slices.Sort(col[row[i]:row[i+1]])
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	w := make([]int64, len(col))
	for i := range w {
		w[i] = 1 + rng.Int63n(15)
	}
	return &Graph{Name: name, N: n, RowPtr: row, Col: col, Weight: w}
}

// Uniform generates a graph where every vertex has close to `degree`
// out-edges with uniformly random endpoints — the p2p-network class
// (p2p-Gnutella31).
func Uniform(name string, n, degree, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	src := make([]int64, 0, n*(degree+1))
	dst := make([]int64, 0, n*(degree+1))
	for u := int64(0); u < n; u++ {
		d := degree
		if rng.Intn(2) == 0 { // mild irregularity
			d++
		}
		for k := int64(0); k < d; k++ {
			src = append(src, u)
			dst = append(dst, rng.Int63n(n))
		}
	}
	return fromEdges(name, n, src, dst, seed)
}

// PowerLaw generates a web/social-like graph: out-degrees follow a heavy
// tail (Zipf) and endpoints are biased towards low vertex IDs (hubs) —
// the web-Google/web-BerkStan/loc-Brightkite class.
func PowerLaw(name string, n int64, avgDegree float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	imax := uint64(avgDegree * 12)
	z := rand.NewZipf(rng, 1.5, 1.0, imax)
	target := int64(avgDegree * float64(n))
	// The loop stops after the first burst that reaches target, and a
	// burst is at most imax+1 edges (Zipf draws are bounded by imax), so
	// the slices never grow; the overshoot is cut off below.
	src := make([]int64, 0, target+int64(imax)+1)
	dst := make([]int64, 0, target+int64(imax)+1)
	for int64(len(src)) < target {
		u := rng.Int63n(n)
		d := int64(z.Uint64()) + 1
		for k := int64(0); k < d; k++ {
			// Hub bias: square the fraction to favour small IDs.
			f := rng.Float64()
			v := int64(f * f * float64(n))
			if v >= n {
				v = n - 1
			}
			src = append(src, u)
			dst = append(dst, v)
		}
	}
	return fromEdges(name, n, src[:target], dst[:target], seed)
}

// Grid generates a rows×cols 4-neighbour lattice — the road-network
// class (roadNet-CA/roadNet-PA): degree ≈ 4, huge diameter.
func Grid(name string, rows, cols int64, seed int64) *Graph {
	n := rows * cols
	m := max(2*(2*n-rows-cols), 0)
	src := make([]int64, 0, m)
	dst := make([]int64, 0, m)
	at := func(r, c int64) int64 { return r*cols + c }
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			u := at(r, c)
			if r+1 < rows {
				src = append(src, u, at(r+1, c))
				dst = append(dst, at(r+1, c), u)
			}
			if c+1 < cols {
				src = append(src, u, at(r, c+1))
				dst = append(dst, at(r, c+1), u)
			}
		}
	}
	return fromEdges(name, n, src, dst, seed)
}

// Kronecker generates a Graph500-style R-MAT graph with the reference
// initiator probabilities (A=0.57, B=0.19, C=0.19) and the given scale
// (N = 2^scale) and edge factor.
//
// Each bit's quadrant is picked by one rng.Int63 draw compared against
// integer thresholds. That is the same decision as comparing
// rng.Float64() against A, A+B and A+B+C (including Float64's redraw
// when the value rounds to 1), because Float64 is float64(Int63())/2^63,
// which is monotone in the draw; see f64Bound.
func Kronecker(name string, scale, edgeFactor, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := int64(1) << uint(scale)
	m := n * edgeFactor
	src := make([]int64, m)
	dst := make([]int64, m)
	ta, tab, tabc, tone := f64Bound(kronA), f64Bound(kronA+kronB), f64Bound(kronA+kronB+kronC), f64Bound(1)
	for i := int64(0); i < m; i++ {
		var u, v int64
		for bit := uint(0); bit < uint(scale); bit++ {
			x := rng.Int63()
			for x >= tone {
				x = rng.Int63()
			}
			// Quadrant (u, v): (0,0) below A, (0,1) below A+B, (1,0)
			// below A+B+C, (1,1) above.
			u |= geq(x, tab) << bit
			v |= (geq(x, ta) ^ geq(x, tab) ^ geq(x, tabc)) << bit
		}
		src[i], dst[i] = u, v
	}
	return fromEdges(name, n, src, dst, seed)
}

// The Graph500 reference initiator probabilities.
const kronA, kronB, kronC = 0.57, 0.19, 0.19

// f64Bound returns the smallest non-negative int63 x with
// float64(x)/2^63 >= t, so that for every draw x of rng.Int63,
// float64(x)/2^63 < t exactly when x < f64Bound(t).
func f64Bound(t float64) int64 {
	lo, hi := int64(0), int64(1<<63-1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// geq returns 1 if x >= t and 0 otherwise, without a branch; both
// arguments are non-negative, so t-1-x is negative exactly when x >= t.
func geq(x, t int64) int64 { return int64(uint64(t-1-x) >> 63) }

// Dataset names the synthetic stand-ins for Table 4 plus the Graph500
// input. The sizes are scaled with the 512 KiB simulated LLC so the
// per-vertex state arrays (~0.5–1 MiB) and adjacency (~2–6 MiB) exceed
// it, as the originals exceed the paper's 22 MiB LLC.
type Dataset struct {
	Name     string // short key used on figure x-axes (WG, P2P, CA, ...)
	Original string // the Table 4 dataset this models
	Class    string // generator family
	Make     func() *Graph
}

// Datasets is the registry of Table 4 stand-ins.
func Datasets() []Dataset {
	return []Dataset{
		{"WG", "web-Google", "power-law", func() *Graph { return PowerLaw("WG", 96_000, 5.8, 1001) }},
		{"P2P", "p2p-Gnutella31", "uniform", func() *Graph { return Uniform("P2P", 80_000, 2, 1002) }},
		{"CA", "roadNet-CA", "grid", func() *Graph { return Grid("CA", 310, 310, 1003) }},
		{"PA", "roadNet-PA", "grid", func() *Graph { return Grid("PA", 256, 256, 1004) }},
		{"LBE", "loc-Brightkite", "power-law", func() *Graph { return PowerLaw("LBE", 72_000, 3.7, 1005) }},
		{"WB", "web-BerkStan", "power-law", func() *Graph { return PowerLaw("WB", 88_000, 11, 1006) }},
		{"WN", "web-NotreDame", "power-law", func() *Graph { return PowerLaw("WN", 80_000, 4.6, 1007) }},
		{"WS", "web-Stanford", "power-law", func() *Graph { return PowerLaw("WS", 72_000, 8.2, 1008) }},
		{"KRON", "graph500 scale-22", "kronecker", func() *Graph { return Kronecker("KRON", 16, 10, 1009) }},
	}
}

// ByName returns the dataset with the given key.
func ByName(name string) (Dataset, bool) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}
