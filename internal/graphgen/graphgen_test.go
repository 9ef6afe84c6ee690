package graphgen

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformShape(t *testing.T) {
	g := Uniform("u", 1000, 3, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 1000 {
		t.Fatalf("N = %d", g.N)
	}
	if d := g.AvgDegree(); d < 3 || d > 4.2 {
		t.Fatalf("avg degree = %v, want ≈3.5", d)
	}
}

func TestPowerLawShape(t *testing.T) {
	g := PowerLaw("p", 5000, 6, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.AvgDegree(); d < 5.5 || d > 6.5 {
		t.Fatalf("avg degree = %v, want ≈6", d)
	}
	// Heavy tail: the max degree should far exceed the average.
	var max int64
	for u := int64(0); u < g.N; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	if float64(max) < 4*g.AvgDegree() {
		t.Fatalf("max degree %d too small for a power law (avg %.1f)", max, g.AvgDegree())
	}
}

func TestGridShape(t *testing.T) {
	g := Grid("g", 10, 12, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 120 {
		t.Fatalf("N = %d", g.N)
	}
	// Interior vertices have degree 4; total edges = 2*(2*rows*cols - rows - cols).
	wantM := int64(2 * (2*10*12 - 10 - 12))
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	// Grid is symmetric: every edge has its reverse.
	edges := map[[2]int64]bool{}
	for u := int64(0); u < g.N; u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			edges[[2]int64{u, g.Col[e]}] = true
		}
	}
	for e := range edges {
		if !edges[[2]int64{e[1], e[0]}] {
			t.Fatalf("missing reverse edge of %v", e)
		}
	}
}

func TestKroneckerShape(t *testing.T) {
	g := Kronecker("k", 10, 8, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 1024 || g.M() != 1024*8 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	// R-MAT skew: low-ID vertices should hold a disproportionate share
	// of edges.
	firstQuarter := int64(0)
	for u := int64(0); u < g.N/4; u++ {
		firstQuarter += g.Degree(u)
	}
	if float64(firstQuarter) < 0.3*float64(g.M()) {
		t.Fatalf("kronecker lacks skew: first quarter holds %d of %d", firstQuarter, g.M())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PowerLaw("a", 2000, 4, 99).Weighted()
	b := PowerLaw("a", 2000, 4, 99).Weighted()
	if a.M() != b.M() {
		t.Fatal("same seed must give same graph")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Weight[i] != b.Weight[i] {
			t.Fatal("same seed must give identical adjacency and weights")
		}
	}
	c := PowerLaw("a", 2000, 4, 100)
	same := a.M() == c.M()
	if same {
		same = true
		for i := range a.Col {
			if a.Col[i] != c.Col[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestWeightsPositiveBounded(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		g := Uniform("w", 200, 2, seed).Weighted()
		for _, w := range g.Weight {
			if w < 1 || w > 15 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightsOnDemand: generators leave Weight nil — only SSSP reads it,
// and every other workload would carry megabytes of unread weights — and
// Weighted fills it once: a second call changes nothing.
func TestWeightsOnDemand(t *testing.T) {
	for _, g := range []*Graph{
		Uniform("u", 300, 2, 7),
		PowerLaw("p", 300, 3, 7),
		Grid("g", 10, 12, 7),
		Kronecker("k", 8, 4, 7),
	} {
		if g.Weight != nil {
			t.Fatalf("%s: generator filled Weight", g.Name)
		}
		if g.Weighted() != g || int64(len(g.Weight)) != g.M() {
			t.Fatalf("%s: Weighted gave %d weights for %d edges", g.Name, len(g.Weight), g.M())
		}
		first := g.Weight
		want := append([]int64(nil), first...)
		g.Weighted()
		if &g.Weight[0] != &first[0] || !slices.Equal(g.Weight, want) {
			t.Fatalf("%s: second Weighted call changed the weights", g.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 9 {
		t.Fatalf("want 9 datasets, got %d", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		seen[d.Name] = true
	}
	for _, key := range []string{"WG", "P2P", "CA", "PA", "LBE", "WB", "WN", "WS", "KRON"} {
		if _, ok := ByName(key); !ok {
			t.Fatalf("dataset %s missing", key)
		}
	}
	if _, ok := ByName("NOPE"); ok {
		t.Fatal("unknown dataset should miss")
	}
}

func TestDatasetGraphsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow in -short mode")
	}
	for _, d := range Datasets() {
		g := d.Make()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if g.N < 50_000 && d.Class != "grid" && d.Class != "kronecker" {
			t.Fatalf("%s too small: %d vertices", d.Name, g.N)
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := Uniform("s", 500, 4, 5)
	for u := int64(0); u < g.N; u++ {
		for e := g.RowPtr[u] + 1; e < g.RowPtr[u+1]; e++ {
			if g.Col[e] < g.Col[e-1] {
				t.Fatalf("adjacency of %d not sorted", u)
			}
		}
	}
}
