package wire

import (
	"fmt"
	"testing"

	"aptget/internal/lbr"
)

// benchProfile builds a canonical profile shaped like a real collection:
// nSamples LBR snapshots of 16 entries each, a handful of delinquent
// loads, and a small loop forest.
func benchProfile(nSamples int) *Profile {
	p := &Profile{
		App:          "BFS",
		Cycles:       48_000_000,
		Instructions: 36_000_000,
		Loads: []Load{
			{PC: 40, Samples: 900, Share: 0.62},
			{PC: 88, Samples: 310, Share: 0.21},
			{PC: 12, Samples: 120, Share: 0.08},
		},
		Loops: []LoopShape{
			{Depth: 1, Parent: -1, Latches: 1, Blocks: 6, HasInduction: true},
			{Depth: 2, Parent: 0, Latches: 1, Blocks: 3, HasInduction: true},
		},
	}
	cycle := uint64(1000)
	for i := 0; i < nSamples; i++ {
		s := lbr.Sample{Cycle: cycle}
		ec := cycle - 600
		for j := 0; j < 16; j++ {
			ec += uint64(13 + (i+j)%37)
			s.Entries = append(s.Entries, lbr.Entry{From: 40, To: 8, Cycle: ec})
		}
		cycle += 1000
		p.Samples = append(p.Samples, s)
	}
	p.Canonicalize()
	return p
}

// BenchmarkHotWireDecode is the ingest hot path: parsing (and
// canonicality-checking) one profile frame, at loadgen-corpus size and at
// a large size (2048 LBR snapshots). Tracked by the CI bench gate.
func BenchmarkHotWireDecode(b *testing.B) {
	for _, n := range []int{64, 2048} {
		data := EncodeProfile(benchProfile(n))
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProfile(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotWireEncode is the other half of the round trip: rendering
// the canonical frame (already-canonical input, the common serve case).
func BenchmarkHotWireEncode(b *testing.B) {
	for _, n := range []int{64, 2048} {
		p := benchProfile(n)
		data := EncodeProfile(p)
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if out := EncodeProfile(p); len(out) != len(data) {
					b.Fatal("bad encode")
				}
			}
		})
	}
}
