package graphgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fromEdgesSorted is the comparison-sort CSR build fromEdges replaced:
// scatter the edges by source, then sort every row. It is the reference
// the counting-sort build must match element for element.
func fromEdgesSorted(n int64, src, dst []int64) (row, col []int64) {
	row = make([]int64, n+1)
	for _, u := range src {
		row[u+1]++
	}
	for i := int64(0); i < n; i++ {
		row[i+1] += row[i]
	}
	col = make([]int64, len(src))
	next := append([]int64(nil), row[:n]...)
	for i, u := range src {
		col[next[u]] = dst[i]
		next[u]++
	}
	for i := int64(0); i < n; i++ {
		slices.Sort(col[row[i]:row[i+1]])
	}
	return row, col
}

// TestFromEdgesMatchesSortedBuild checks the counting-sort CSR build
// against the sort-based reference on random edge lists: duplicate
// edges, self-loops, vertices with no out-edges (or no in-edges), no
// edges at all, and a single vertex.
func TestFromEdgesMatchesSortedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type shape struct{ n, m int64 }
	shapes := []shape{{1, 0}, {1, 1}, {1, 7}, {2, 0}, {5, 0}, {3, 40}, {17, 5}, {64, 64}, {100, 1000}, {1000, 300}}
	for _, sh := range shapes {
		for trial := 0; trial < 5; trial++ {
			src := make([]int64, sh.m)
			dst := make([]int64, sh.m)
			// Draw endpoints from a random sub-range so some vertices
			// have empty rows and some receive no edge.
			hot := 1 + rng.Int63n(sh.n)
			for i := range src {
				src[i] = rng.Int63n(hot)
				switch rng.Intn(4) {
				case 0:
					dst[i] = src[i] // self-loop
				case 1:
					if i > 0 { // duplicate of the previous edge
						src[i], dst[i] = src[i-1], dst[i-1]
						continue
					}
					fallthrough
				default:
					dst[i] = sh.n - 1 - rng.Int63n(hot)
				}
			}
			wantRow, wantCol := fromEdgesSorted(sh.n, src, dst)
			given := append([]int64(nil), dst...)
			g := fromEdges("t", sh.n, src, given, 1)
			name := fmt.Sprintf("n=%d m=%d trial %d", sh.n, sh.m, trial)
			if sh.m > 0 && &g.Col[0] != &given[0] {
				t.Fatalf("%s: Col does not reuse dst's storage", name)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(g.RowPtr, wantRow) {
				t.Fatalf("%s: RowPtr = %v, want %v", name, g.RowPtr, wantRow)
			}
			if !slices.Equal(g.Col, wantCol) {
				t.Fatalf("%s: Col = %v, want %v", name, g.Col, wantCol)
			}
		}
	}
}
