package graphgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// graphDigest hashes a graph's CSR arrays (N, RowPtr, Col, Weight) in
// little-endian order, so any change to a generator's output — one edge,
// one weight, one row boundary — changes the digest.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(g.N)
	for _, s := range [][]int64{g.RowPtr, g.Col, g.Weight} {
		put(int64(len(s)))
		for _, x := range s {
			put(x)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetsPinned pins every registry dataset, plus SSSP's smaller
// P2P instance, byte for byte. The digests were taken from the original
// reflective-sort, grow-as-you-go, Float64-drawing generators; every
// figure and golden plan in the repository is downstream of these
// graphs, so a generator optimisation must leave them unchanged. The
// weights are hashed as Weighted draws them: the pins predate on-demand
// weights, so they also hold Weighted to the stream the generators used.
func TestDatasetsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow in -short mode")
	}
	want := map[string]string{
		"WG":    "1a5e21b1486b757a6ad2f716fdf30b3a9699a78b7d048472746d1ecde686af6c",
		"P2P":   "cf247de174484a29cf9022e47487317ccf901a82d54245cd3ac48b6628849fe9",
		"CA":    "65e8924d83b16aab32ebf8b9ac3eab7805556ead89a5718d13c515d1a50ad947",
		"PA":    "db722298d6d1b970e2c64e1d790756dc433ed676ec74baa71bdbc2ba042fcbc1",
		"LBE":   "182af91c820b9061bfd45c4c138d1b604f8130648ac0a42a39a8c6f6317d5855",
		"WB":    "2d12a8d474b0f6e54fcc4ef59c169c610048cc877fe190d8064e8278463e60e5",
		"WN":    "2f64c6fd602a0784c58e5ed950dcad686d98364121b7b9bc105bf238e7f00eee",
		"WS":    "2b208ce919d4cabc94aa55c3cac2f2764bdf49484e038d241fc844df76fcb9a4",
		"KRON":  "6f8148c9d029d886f1d8993a2ccf7d07d99dcf85c570d2e0adc85673da0b1796",
		"P2P-s": "28b4b4414e6c31da790f2918628d3f694fb5561a18eca5d3a191c26091b594be",
	}
	graphs := map[string]*Graph{"P2P-s": Uniform("P2P-s", 32_000, 2, 1102)}
	for _, d := range Datasets() {
		graphs[d.Name] = d.Make()
	}
	if len(graphs) != len(want) {
		t.Fatalf("%d graphs generated, %d pinned", len(graphs), len(want))
	}
	for name, g := range graphs {
		if got := graphDigest(g.Weighted()); got != want[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, want[name])
		}
	}
}

// TestF64BoundExact checks the thresholds Kronecker compares rng.Int63
// draws against: T = f64Bound(t) is the first draw whose Float64 value
// float64(T)/2^63 reaches t, and the draw just below it stays under t.
func TestF64BoundExact(t *testing.T) {
	for _, bound := range []float64{kronA, kronA + kronB, kronA + kronB + kronC, 1} {
		T := f64Bound(bound)
		if lo, hi := float64(T-1)/(1<<63), float64(T)/(1<<63); !(lo < bound && bound <= hi) {
			t.Errorf("f64Bound(%v) = %d: Float64 of T-1 = %v, of T = %v", bound, T, lo, hi)
		}
	}
}
