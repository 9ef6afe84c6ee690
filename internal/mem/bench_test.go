package mem

import "testing"

// BenchmarkHotAccess measures the memory-hierarchy model's access
// throughput on a pseudo-random load stream. Tracked by the CI bench
// gate.
func BenchmarkHotAccess(b *testing.B) {
	h := New(ConfigScaled(), 1<<24)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Access(uint64(i)*4, 1, int64(x%(1<<23)), KindLoad)
	}
}
