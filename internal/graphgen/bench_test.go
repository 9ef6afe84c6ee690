package graphgen

import "testing"

// BenchmarkHotGraphgen times the generators behind the daemon's miss
// path (every miss regenerates its app's dataset): KRON is G500's
// Kronecker graph, WG is BFS's power-law graph. Tracked by the CI bench
// gate.
func BenchmarkHotGraphgen(b *testing.B) {
	for _, name := range []string{"KRON", "WG"} {
		d, _ := ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := d.Make(); g.M() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
