package mem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// pinnedStream drives a hierarchy with a seeded mix of strided loads
// (which train and fire the stride prefetcher), random loads from more
// than strideTableMaxEntries distinct PCs (which exercise the stride
// table's clear path), stores, software prefetches, short-distance
// reuse and a few negative addresses, flushing the caches halfway. It
// returns the final Stats and an FNV-1a digest of every Result.
func pinnedStream(cfg Config, seed int64, n int) (Stats, uint64) {
	h := New(cfg, 1<<12)
	rng := rand.New(rand.NewSource(seed))
	type stream struct {
		pc     uint64
		cursor int64
		stride int64
	}
	streams := []stream{
		{pc: 0x1000, cursor: 0, stride: 64},
		{pc: 0x1004, cursor: 1 << 24, stride: 8},
		{pc: 0x1008, cursor: 2 << 24, stride: 128},
		{pc: 0x100c, cursor: 3 << 24, stride: -64},
		{pc: 0x1010, cursor: 4 << 24, stride: 256},
		{pc: 0x1014, cursor: 5 << 24, stride: 4096},
	}
	span := int64(1) << 27
	var recent [16]int64
	dig := fnv.New64a()
	now := uint64(0)
	for i := 0; i < n; i++ {
		if i == n/2 {
			h.Flush()
		}
		var (
			pc   uint64
			addr int64
			kind = KindLoad
		)
		switch r := rng.Intn(100); {
		case r < 40:
			s := &streams[rng.Intn(len(streams))]
			pc, addr = s.pc, s.cursor
			s.cursor += s.stride
		case r < 65:
			pc, addr = uint64(rng.Intn(600))*4, rng.Int63n(span)
		case r < 75:
			pc, addr, kind = uint64(rng.Intn(40))*4+0x2000, rng.Int63n(span), KindStore
		case r < 85:
			pc, kind = 0x3000, KindSWPrefetch
			if rng.Intn(2) == 0 {
				s := streams[rng.Intn(len(streams))]
				addr = s.cursor + s.stride*int64(1+rng.Intn(8))
			} else {
				addr = rng.Int63n(span)
			}
		case r < 99:
			pc, addr = uint64(rng.Intn(8))*4+0x4000, recent[rng.Intn(len(recent))]
		default:
			pc, addr = 0x5000, -rng.Int63n(span)
		}
		recent[i%len(recent)] = addr
		res := h.Access(now, pc, addr, kind)
		fmt.Fprintf(dig, "%d %d %t %t %t;", res.Latency, res.Served, res.FBHit, res.FBHitSW, res.LLCMiss)
		now += res.Latency + uint64(rng.Intn(24))
	}
	return h.Stats, dig.Sum64()
}

// TestAccessStreamPinned holds the hierarchy's observable behaviour —
// every Stats counter and every per-access Result — to values recorded
// before the cache, stride-table and arena internals were rewritten for
// speed. A change here is a change to the simulated machine.
func TestAccessStreamPinned(t *testing.T) {
	cases := []struct {
		cfg   Config
		stats string
		dig   uint64
	}{
		{ConfigScaled(),
			"{DemandAccesses:269952 Hits:[70390 87208 278 109440 2636] OffcoreDemand:109718 OffcoreSWPrefetch:26139 OffcoreHWPrefetch:198396 FBHitSWPrefetch:622 FBHitAny:2636 SWPrefetchIssued:30048 SWPrefetchCacheHit:2166 SWPrefetchMerged:278 SWPrefetchDroppedFull:0 HWPrefetchIssued:341116 SWPrefetchUnusedEvicted:14051 StallCycles:[281560 1220912 11676 24182383 358965]}",
			0x4372dcb44e431df2},
		{ConfigTiny(),
			"{DemandAccesses:269952 Hits:[17635 30526 16711 204635 445] OffcoreDemand:221346 OffcoreSWPrefetch:29044 OffcoreHWPrefetch:0 FBHitSWPrefetch:445 FBHitAny:445 SWPrefetchIssued:30048 SWPrefetchCacheHit:343 SWPrefetchMerged:44 SWPrefetchDroppedFull:5 HWPrefetchIssued:0 SWPrefetchUnusedEvicted:28251 StallCycles:[70540 427364 701862 40964804 70831]}",
			0x51aff8eba0d3480c},
		{ConfigXeon5218(),
			"{DemandAccesses:269952 Hits:[71267 86904 3051 106010 2720] OffcoreDemand:109061 OffcoreSWPrefetch:26033 OffcoreHWPrefetch:194328 FBHitSWPrefetch:629 FBHitAny:2720 SWPrefetchIssued:30048 SWPrefetchCacheHit:2184 SWPrefetchMerged:278 SWPrefetchDroppedFull:1 HWPrefetchIssued:337686 SWPrefetchUnusedEvicted:13234 StallCycles:[285068 1216656 134244 27663691 456958]}",
			0xb535c0844a0b1d78},
	}
	for _, c := range cases {
		st, dig := pinnedStream(c.cfg, 18, 300_000)
		if got := fmt.Sprintf("%+v", st); got != c.stats || dig != c.dig {
			t.Errorf("%s: stream drifted\n got  %s digest %#x\n want %s digest %#x",
				c.cfg.Name, got, dig, c.stats, c.dig)
		}
	}
}
