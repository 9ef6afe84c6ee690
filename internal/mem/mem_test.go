package mem

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestArenaReadWriteRoundTrip(t *testing.T) {
	a := NewArena(1 << 12)
	cases := []struct {
		addr int64
		val  int64
		size uint8
	}{
		{0, 0x7f, 1}, {1, -1, 1}, {8, -12345, 2}, {16, 0x7fffffff, 4},
		{24, -2147483648, 4}, {32, 1<<62 - 3, 8}, {40, -(1 << 60), 8},
	}
	for _, c := range cases {
		a.Write(c.addr, c.val, c.size)
		if got := a.Read(c.addr, c.size); got != c.val {
			t.Fatalf("size %d: wrote %d read %d", c.size, c.val, got)
		}
	}
}

func TestArenaSignExtension(t *testing.T) {
	a := NewArena(64)
	a.Write(0, 0xff, 1)
	if got := a.Read(0, 1); got != -1 {
		t.Fatalf("int8 0xff should read -1, got %d", got)
	}
	a.Write(8, 0xffff, 2)
	if got := a.Read(8, 2); got != -1 {
		t.Fatalf("int16 0xffff should read -1, got %d", got)
	}
	a.Write(16, 0xffffffff, 4)
	if got := a.Read(16, 4); got != -1 {
		t.Fatalf("int32 should read -1, got %d", got)
	}
}

func TestArenaRoundTripQuick(t *testing.T) {
	a := NewArena(1 << 10)
	if err := quick.Check(func(off uint16, v int64) bool {
		addr := int64(off % 1000)
		a.Write(addr, v, 8)
		return a.Read(addr, 8) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaOutOfRangePanics(t *testing.T) {
	a := NewArena(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	a.Read(63, 8)
}

// TestArenaPoolByCapacity: an arena's capacity is its size rounded up
// to a power of two, and a smaller request reuses it — zeroed, and
// bounded at the requested size, not the capacity. The pool keeps at
// most arenaPoolCap arenas, the most recently recycled ones.
func TestArenaPoolByCapacity(t *testing.T) {
	const size = 3<<20 + 8
	a := NewArena(size)
	if cap(a.data) != 4<<20 {
		t.Fatalf("capacity %d, want the 4 MiB class", cap(a.data))
	}
	for off := int64(0); off < size; off += 4096 {
		a.Write(off, -1, 8)
	}
	backing := &a.data[0]
	a.Recycle()

	b := NewArena(3 << 20)
	if &b.data[0] != backing {
		t.Fatal("a smaller request did not reuse the recycled 4 MiB arena")
	}
	if b.Size() != 3<<20 {
		t.Fatalf("reused arena has size %d, want %d", b.Size(), 3<<20)
	}
	for off := int64(0); off < b.Size(); off += 4096 {
		if b.Read(off, 8) != 0 {
			t.Fatalf("reused arena not zeroed at %d", off)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("access past the requested size should panic")
			}
		}()
		b.Read(b.Size(), 1)
	}()
	b.Recycle()

	// No recycled arena holds 5 MiB: the request drops the smallest one,
	// which is too small for the runs now in use, and allocates afresh.
	n := PoolLen(0)
	last := NewArena(5 << 20)
	if PoolLen(0) != n-1 {
		t.Fatalf("pool holds %d arenas after an unservable request, want %d", PoolLen(0), n-1)
	}
	for i := 0; i < arenaPoolCap+2; i++ {
		(&Arena{data: make([]byte, 5<<20, 8<<20)}).Recycle()
	}
	last.Recycle()
	if n := PoolLen(0); n != arenaPoolCap {
		t.Fatalf("pool holds %d arenas, bound is %d", n, arenaPoolCap)
	}
	if got := NewArena(5 << 20); got != last {
		t.Fatal("the most recently recycled arena was not kept")
	}
}

// TestArenaCheckNearMaxInt64: addr+size overflows for addresses near
// MaxInt64, so a check computed that way waves the access through and
// it dies with a runtime index panic instead of the arena's own.
func TestArenaCheckNearMaxInt64(t *testing.T) {
	a := NewArena(64)
	for _, access := range []func(){
		func() { a.Read(math.MaxInt64-2, 8) },
		func() { a.Write(math.MaxInt64-2, 1, 8) },
		func() { a.Read(math.MaxInt64, 1) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside arena") {
					t.Fatalf("want the arena's out-of-range panic, got %q", msg)
				}
			}()
			access()
		}()
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(LevelConfig{SizeBytes: 2 * LineSize, Ways: 2, Latency: 1})
	// One set, two ways. Lines 0,2,4 map to set 0 (mask 0).
	c.install(0, false, false)
	c.install(2, false, false)
	c.lookup(0, true) // 0 becomes MRU
	ev := c.install(4, false, false)
	if !ev.valid || ev.line != 2 {
		t.Fatalf("expected eviction of line 2, got %+v", ev)
	}
	if !c.contains(0) || !c.contains(4) || c.contains(2) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestCachePrefetchUnusedEvictionFlag(t *testing.T) {
	c := newCache(LevelConfig{SizeBytes: 2 * LineSize, Ways: 2, Latency: 1})
	c.install(0, true, true) // SW prefetch, never touched
	c.install(2, false, false)
	c.lookup(2, true)
	ev := c.install(4, false, false) // evicts line 0
	if !ev.swPrefUnused || !ev.prefetchUnused {
		t.Fatalf("untouched prefetched line should flag unused eviction: %+v", ev)
	}
	// Now a touched prefetched line must not flag.
	c2 := newCache(LevelConfig{SizeBytes: 2 * LineSize, Ways: 2, Latency: 1})
	c2.install(0, true, true)
	c2.lookup(0, true)
	c2.install(2, false, false)
	c2.lookup(2, true)
	ev = c2.install(4, false, false)
	if ev.swPrefUnused {
		t.Fatalf("touched prefetched line must not count as unused: %+v", ev)
	}
}

func TestCacheInstallIdempotent(t *testing.T) {
	c := newCache(LevelConfig{SizeBytes: 4 * LineSize, Ways: 4, Latency: 1})
	c.install(7, false, false)
	c.install(7, false, false)
	if got := c.countValid(); got != 1 {
		t.Fatalf("duplicate install should not duplicate line: %d valid", got)
	}
}

func TestHierarchyHitLatencies(t *testing.T) {
	cfg := ConfigTiny()
	h := New(cfg, 1<<16)
	// First access: DRAM.
	r := h.Access(0, 1, 0x1000, KindLoad)
	if r.Served != LevelDRAM || r.Latency < cfg.DRAMLatency {
		t.Fatalf("cold access should be DRAM: %+v", r)
	}
	// Second: L1.
	r = h.Access(1000, 1, 0x1008, KindLoad) // same line
	if r.Served != LevelL1 || r.Latency != cfg.L1.Latency {
		t.Fatalf("second access should hit L1: %+v", r)
	}
}

func TestHierarchyLevelsServeAfterL1Eviction(t *testing.T) {
	cfg := ConfigTiny() // L1: 4 lines (2 sets x 2 ways)
	h := New(cfg, 1<<20)
	now := uint64(0)
	// Touch lines 0..7 of set 0 (stride = 2 lines * 64B... compute set:
	// tiny L1 has 2 sets, so even lines map to set 0).
	for i := 0; i < 8; i++ {
		r := h.Access(now, 1, int64(i)*4*LineSize, KindLoad)
		now += r.Latency + 1
	}
	// Line 0 has been evicted from L1 but lives in L2 or LLC.
	r := h.Access(now, 1, 0, KindLoad)
	if r.Served != LevelL2 && r.Served != LevelLLC {
		t.Fatalf("expected L2/LLC hit after L1 eviction, got %v", r.Served)
	}
}

func TestSWPrefetchTimelyAvoidsMiss(t *testing.T) {
	cfg := ConfigTiny()
	h := New(cfg, 1<<16)
	addr := int64(0x2000)
	r := h.Access(0, 9, addr, KindSWPrefetch)
	if r.Latency != 1 {
		t.Fatalf("prefetch issue cost should be 1 cycle, got %d", r.Latency)
	}
	if h.InFlight() != 1 {
		t.Fatal("prefetch should allocate a fill buffer")
	}
	// Demand long after the fill completes: an L1 hit.
	r = h.Access(cfg.DRAMLatency+100, 1, addr, KindLoad)
	if r.Served != LevelL1 {
		t.Fatalf("timely prefetch should yield L1 hit, got %v (lat %d)", r.Served, r.Latency)
	}
	if h.Stats.FBHitSWPrefetch != 0 {
		t.Fatal("timely prefetch must not count as late")
	}
}

func TestSWPrefetchLateCountsLoadHitPre(t *testing.T) {
	cfg := ConfigTiny()
	h := New(cfg, 1<<16)
	addr := int64(0x3000)
	h.Access(0, 9, addr, KindSWPrefetch)
	// Demand arrives halfway through the fill.
	half := cfg.DRAMLatency / 2
	r := h.Access(half, 1, addr, KindLoad)
	if !r.FBHit || !r.FBHitSW {
		t.Fatalf("late prefetch should be a fill-buffer hit: %+v", r)
	}
	if r.Latency >= cfg.DRAMLatency {
		t.Fatalf("late prefetch should still hide part of the latency: %d", r.Latency)
	}
	if h.Stats.FBHitSWPrefetch != 1 {
		t.Fatalf("LOAD_HIT_PRE.SW_PF = %d, want 1", h.Stats.FBHitSWPrefetch)
	}
}

func TestSWPrefetchTooEarlyEvictedUnused(t *testing.T) {
	cfg := ConfigTiny() // L1 holds 4 lines
	h := New(cfg, 1<<20)
	target := int64(0)
	h.Access(0, 9, target, KindSWPrefetch)
	now := cfg.DRAMLatency + 10
	// Flood L1 set 0 with demand lines so the prefetched line is evicted
	// before use.
	for i := 1; i <= 4; i++ {
		r := h.Access(now, 1, int64(i)*2*LineSize*2, KindLoad)
		now += r.Latency + 1
	}
	if h.Stats.SWPrefetchUnusedEvicted == 0 {
		t.Fatal("too-early prefetch should be evicted unused")
	}
}

func TestPrefetchDroppedWhenFillBuffersFull(t *testing.T) {
	cfg := ConfigTiny() // 4 fill buffers
	h := New(cfg, 1<<20)
	for i := 0; i < 6; i++ {
		h.Access(0, 9, int64(i)*LineSize*8, KindSWPrefetch)
	}
	if h.InFlight() != cfg.FillBuffers {
		t.Fatalf("in-flight %d, want cap %d", h.InFlight(), cfg.FillBuffers)
	}
	if h.Stats.SWPrefetchDroppedFull != 2 {
		t.Fatalf("dropped %d, want 2", h.Stats.SWPrefetchDroppedFull)
	}
}

func TestPrefetchMergedWhenAlreadyInFlight(t *testing.T) {
	h := New(ConfigTiny(), 1<<16)
	h.Access(0, 9, 0x4000, KindSWPrefetch)
	h.Access(1, 9, 0x4000, KindSWPrefetch)
	if h.Stats.SWPrefetchMerged != 1 {
		t.Fatalf("merged = %d, want 1", h.Stats.SWPrefetchMerged)
	}
	if h.InFlight() != 1 {
		t.Fatal("merge must not allocate a second buffer")
	}
}

func TestPrefetchOfCachedLineIsUseless(t *testing.T) {
	h := New(ConfigTiny(), 1<<16)
	h.Access(0, 1, 0x5000, KindLoad)
	h.Access(500, 9, 0x5000, KindSWPrefetch)
	if h.Stats.SWPrefetchCacheHit != 1 {
		t.Fatalf("cache-hit prefetch count = %d, want 1", h.Stats.SWPrefetchCacheHit)
	}
}

func TestOffcoreCountersAndAccuracy(t *testing.T) {
	h := New(ConfigTiny(), 1<<20)
	// 2 demand misses to DRAM + 2 SW prefetches to DRAM.
	h.Access(0, 1, 0*4096, KindLoad)
	h.Access(300, 1, 1*4096, KindLoad)
	h.Access(600, 9, 2*4096, KindSWPrefetch)
	h.Access(601, 9, 3*4096, KindSWPrefetch)
	if h.Stats.OffcoreDemand != 2 || h.Stats.OffcoreSWPrefetch != 2 {
		t.Fatalf("offcore demand=%d sw=%d, want 2/2",
			h.Stats.OffcoreDemand, h.Stats.OffcoreSWPrefetch)
	}
	if acc := h.Stats.PrefetchAccuracy(); acc != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", acc)
	}
}

func TestDRAMBandwidthGapSerializes(t *testing.T) {
	cfg := ConfigTiny()
	h := New(cfg, 1<<20)
	// Two prefetches issued the same cycle: the second completes at least
	// DRAMGap later.
	h.Access(0, 9, 0x8000, KindSWPrefetch)
	h.Access(0, 9, 0x9000, KindSWPrefetch)
	if h.InFlight() != 2 {
		t.Fatal("both prefetches should be in flight")
	}
	// Demand on the second line just after the first fill completes:
	// it must still be waiting (gap delayed its start).
	r := h.Access(cfg.DRAMLatency+1, 1, 0x9000, KindLoad)
	if !r.FBHit {
		t.Fatalf("second fill should still be in flight: %+v", r)
	}
}

func TestStridePrefetcherDetectsStream(t *testing.T) {
	p := newStridePrefetcher(2)
	var fired []int64
	for i := int64(0); i < 6; i++ {
		fired = fire(p, 42, i*64)
	}
	if len(fired) != 2 {
		t.Fatalf("locked stride should fire %d targets, want 2", len(fired))
	}
	if fired[0] <= 5*64 {
		t.Fatalf("prefetch target should be ahead of the stream: %v", fired)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := newStridePrefetcher(2)
	addrs := []int64{0, 640, 64, 8192, 128, 4096}
	for _, a := range addrs {
		if got := fire(p, 7, a); got != nil {
			t.Fatalf("random stream should never fire, got %v", got)
		}
	}
}

func TestStridePrefetcherEndToEnd(t *testing.T) {
	cfg := ConfigScaled()
	h := New(cfg, 1<<22)
	now := uint64(0)
	// Sequential walk: after training, most accesses should be covered.
	misses := 0
	for i := int64(0); i < 512; i++ {
		r := h.Access(now, 11, i*8, KindLoad)
		if r.Served == LevelDRAM {
			misses++
		}
		now += r.Latency + 2
	}
	// 512 loads cover 64 lines; without prefetching all 64 would miss.
	if misses >= 32 {
		t.Fatalf("stride prefetcher should cover a sequential walk: %d DRAM misses", misses)
	}
	if h.Stats.HWPrefetchIssued == 0 {
		t.Fatal("hardware prefetches should have been issued")
	}
}

// TestAccessAllocsPerRun: once warm, the access path — stride training
// and the hardware prefetches it fires included — allocates nothing.
func TestAccessAllocsPerRun(t *testing.T) {
	h := New(ConfigScaled(), 1<<12)
	now, addr := uint64(0), int64(0)
	step := func() {
		r := h.Access(now, 0x40, addr, KindLoad)
		now += r.Latency + 2
		addr += 64
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	issued := h.Stats.HWPrefetchIssued
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Access allocates %.2f times per call, want 0", allocs)
	}
	if h.Stats.HWPrefetchIssued == issued {
		t.Fatal("stream never fired the stride prefetcher")
	}
}

func TestIndirectAccessesNotCoveredByHWPrefetch(t *testing.T) {
	cfg := ConfigScaled()
	h := New(cfg, 1<<24)
	now := uint64(0)
	// Pseudo-random line accesses from one PC: HW prefetcher should not
	// help; nearly all should go to DRAM.
	misses := 0
	x := uint64(12345)
	for i := 0; i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := int64(x % (1 << 23))
		r := h.Access(now, 13, addr, KindLoad)
		if r.Served == LevelDRAM {
			misses++
		}
		now += r.Latency + 2
	}
	if misses < 200 {
		t.Fatalf("random accesses should mostly miss, got %d/256", misses)
	}
}

func TestFlushDropsCachedState(t *testing.T) {
	h := New(ConfigTiny(), 1<<16)
	h.Access(0, 1, 0x100, KindLoad)
	if !h.L1Contains(0x100) {
		t.Fatal("line should be cached")
	}
	h.Flush()
	if h.L1Contains(0x100) || h.InFlight() != 0 {
		t.Fatal("flush should drop lines and fills")
	}
}

func TestStallCycleAttribution(t *testing.T) {
	cfg := ConfigTiny()
	h := New(cfg, 1<<20)
	h.Access(0, 1, 0x100, KindLoad) // DRAM
	h.Access(500, 1, 0x108, KindLoad)
	if h.Stats.StallCycles[LevelDRAM] < cfg.DRAMLatency {
		t.Fatal("DRAM stall cycles not attributed")
	}
	if h.Stats.StallCycles[LevelL1] != cfg.L1.Latency {
		t.Fatalf("L1 stall = %d, want %d", h.Stats.StallCycles[LevelL1], cfg.L1.Latency)
	}
}

func TestLevelConfigSets(t *testing.T) {
	lc := LevelConfig{SizeBytes: 32 << 10, Ways: 8}
	if lc.Sets() != 64 {
		t.Fatalf("32KiB/8way/64B = 64 sets, got %d", lc.Sets())
	}
}

func TestConfigPresetsSane(t *testing.T) {
	for _, cfg := range []Config{ConfigXeon5218(), ConfigScaled(), ConfigTiny()} {
		if cfg.L1.Latency >= cfg.L2.Latency || cfg.L2.Latency >= cfg.LLC.Latency ||
			cfg.LLC.Latency >= cfg.DRAMLatency {
			t.Fatalf("%s: latencies must increase down the hierarchy", cfg.Name)
		}
		if cfg.L1.SizeBytes >= cfg.L2.SizeBytes || cfg.L2.SizeBytes >= cfg.LLC.SizeBytes {
			t.Fatalf("%s: sizes must increase down the hierarchy", cfg.Name)
		}
		if cfg.FillBuffers <= 0 {
			t.Fatalf("%s: need fill buffers", cfg.Name)
		}
	}
}
