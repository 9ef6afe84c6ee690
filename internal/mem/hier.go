package mem

import "strings"

// Kind classifies a memory request.
type Kind uint8

// Request kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindSWPrefetch
	KindHWPrefetch
)

func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindSWPrefetch:
		return "sw-prefetch"
	case KindHWPrefetch:
		return "hw-prefetch"
	}
	return "?"
}

// Result describes the outcome of a demand access.
type Result struct {
	Latency uint64 // cycles the core stalls for this access
	Served  Level  // who provided the data
	FBHit   bool   // demand found the line in a fill buffer (in flight)
	FBHitSW bool   // ...and the fill was initiated by a software prefetch (late prefetch)
	// LLCMiss marks a demand load the PEBS LLC-miss event attributes: a
	// blocking miss served by DRAM, or a fill-buffer hit on an in-flight
	// DRAM fill that a *demand or software prefetch* started (a late
	// prefetch — the load still exposes the residual wait, an order of
	// magnitude less than the full latency, which is exactly the signal
	// 2-D delinquent-load selection needs). Fill-buffer hits on
	// *hardware-prefetch* fills are excluded: on real hardware those
	// retire as MEM_LOAD_RETIRED.FB_HIT, not L3_MISS, which is why
	// streams the hardware prefetcher already covers never surface in an
	// L3-miss profile (the paper's hw-covered inputs are not selected).
	LLCMiss bool
}

// mshrEntry is one in-flight fill (line fill buffer / miss status holding
// register).
type mshrEntry struct {
	line  int64
	ready uint64 // cycle at which the fill completes
	sw    bool   // fill initiated by software prefetch
	hw    bool   // fill initiated by hardware prefetch
	toL1  bool   // install into L1 on completion (SW prefetch / demand); HW prefetch fills stop at L2
	used  bool
	dram  bool // fill sourced from DRAM (vs an L2→L1 promotion): a demand hit on it is an LLC miss
}

// Stats aggregates the PMU-visible memory counters. Counter names follow
// the events the paper reads with perf stat (§2.3, §4.4).
type Stats struct {
	DemandAccesses uint64 // loads + stores reaching the hierarchy
	Hits           [levelCount]uint64

	// Offcore read requests (everything that misses L2), by flavor —
	// offcore_requests.all_data_rd is the sum, demand_data_rd the first.
	OffcoreDemand     uint64
	OffcoreSWPrefetch uint64
	OffcoreHWPrefetch uint64

	// LOAD_HIT_PRE.SW_PF: demand hit an in-flight software prefetch.
	FBHitSWPrefetch uint64
	// Demand hit an in-flight fill of any kind.
	FBHitAny uint64

	SWPrefetchIssued      uint64
	SWPrefetchCacheHit    uint64 // useless: line already present
	SWPrefetchMerged      uint64 // line already in flight
	SWPrefetchDroppedFull uint64 // no free fill buffer
	HWPrefetchIssued      uint64

	// Lines installed by a SW prefetch and evicted from L1 untouched:
	// the paper's "too early" prefetches.
	SWPrefetchUnusedEvicted uint64

	// Demand stall cycles attributed to the level that served the access
	// (Figure 5's L3/DRAM-bound breakdown).
	StallCycles [levelCount]uint64
}

// OffcoreAll returns offcore_requests.all_data_rd: requests issued by
// the *core* that left L2 — demand reads plus software prefetches. L2
// hardware-prefetcher requests are issued by the cache, not the core,
// and are excluded, matching the Intel event the paper reads.
func (s *Stats) OffcoreAll() uint64 {
	return s.OffcoreDemand + s.OffcoreSWPrefetch
}

// PrefetchAccuracy computes the paper's §2.3 metric:
// (all_data_rd − demand_data_rd) / all_data_rd.
func (s *Stats) PrefetchAccuracy() float64 {
	all := s.OffcoreAll()
	if all == 0 {
		return 0
	}
	return float64(all-s.OffcoreDemand) / float64(all)
}

// Export adds every memory-system counter to m under stable snake_case
// keys — the mem half of the observability layer's PMU export.
func (s *Stats) Export(m map[string]int64) {
	m["mem_demand_accesses"] = int64(s.DemandAccesses)
	for l := LevelL1; l < levelCount; l++ {
		name := strings.ToLower(l.String())
		m["mem_hits_"+name] = int64(s.Hits[l])
		m["mem_stall_cycles_"+name] = int64(s.StallCycles[l])
	}
	m["offcore_demand"] = int64(s.OffcoreDemand)
	m["offcore_sw_prefetch"] = int64(s.OffcoreSWPrefetch)
	m["offcore_hw_prefetch"] = int64(s.OffcoreHWPrefetch)
	m["fb_hit_sw_prefetch"] = int64(s.FBHitSWPrefetch)
	m["fb_hit_any"] = int64(s.FBHitAny)
	m["swpf_issued"] = int64(s.SWPrefetchIssued)
	m["swpf_cache_hit"] = int64(s.SWPrefetchCacheHit)
	m["swpf_merged"] = int64(s.SWPrefetchMerged)
	m["swpf_dropped_full"] = int64(s.SWPrefetchDroppedFull)
	m["swpf_unused_evicted"] = int64(s.SWPrefetchUnusedEvicted)
	m["hwpf_issued"] = int64(s.HWPrefetchIssued)
}

// Hierarchy is the complete simulated memory system.
type Hierarchy struct {
	Cfg   Config
	Arena *Arena
	Stats Stats

	l1, l2, llc *cache
	mshr        []mshrEntry

	dramNextFree uint64

	stride *stridePrefetcher
}

// New builds a hierarchy over an arena of the given size. It panics on a
// malformed machine model (see Config.Validate): a misconfigured
// hierarchy must fail loudly, not simulate a silently smaller cache.
func New(cfg Config, arenaSize int64) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hierarchy{
		Cfg:   cfg,
		Arena: NewArena(arenaSize),
		l1:    newCache(cfg.L1),
		l2:    newCache(cfg.L2),
		llc:   newCache(cfg.LLC),
		mshr:  make([]mshrEntry, 0, cfg.FillBuffers),
	}
	if cfg.StridePrefetcher {
		h.stride = newStridePrefetcher(cfg.StrideDegree)
	}
	return h
}

// Release recycles the hierarchy's arena for a later run of the same
// memory size. Call it only when nothing reads the arena anymore — the
// Arena pointer is nilled so a late access fails loudly instead of
// observing another run's memory.
func (h *Hierarchy) Release() {
	if h == nil || h.Arena == nil {
		return
	}
	h.Arena.Recycle()
	h.Arena = nil
}

func lineOf(addr int64) int64 { return addr >> lineShift }

// drain completes every fill whose ready time has passed, installing lines
// into the caches. Callers on the hot path skip the call entirely when no
// fills are in flight (the common case for demand-dominated phases).
func (h *Hierarchy) drain(now uint64) {
	if len(h.mshr) == 0 {
		return
	}
	kept := h.mshr[:0]
	for _, e := range h.mshr {
		if e.ready <= now {
			h.installFill(e)
		} else {
			kept = append(kept, e)
		}
	}
	h.mshr = kept
}

func (h *Hierarchy) installFill(e mshrEntry) {
	byPref := e.sw || e.hw
	if e.toL1 {
		ev := h.l1.install(e.line, byPref, e.sw)
		if ev.swPrefUnused {
			h.Stats.SWPrefetchUnusedEvicted++
		}
		h.l2.install(e.line, byPref, e.sw)
	} else {
		h.l2.install(e.line, byPref, e.sw)
	}
	h.llc.install(e.line, byPref, e.sw)
}

func (h *Hierarchy) findMSHR(line int64) *mshrEntry {
	for i := range h.mshr {
		if h.mshr[i].line == line {
			return &h.mshr[i]
		}
	}
	return nil
}

// dramRequest schedules a DRAM access respecting the bandwidth gap and
// returns the completion cycle.
func (h *Hierarchy) dramRequest(now uint64) uint64 {
	start := now
	if h.dramNextFree > start {
		start = h.dramNextFree
	}
	h.dramNextFree = start + h.Cfg.DRAMGap
	return start + h.Cfg.DRAMLatency
}

// probeBeyondL1 determines which level beyond L1 holds the line, charging
// offcore counters, and returns (level, completion cycle of the fill).
// The line is *not* installed; the caller decides where it lands.
func (h *Hierarchy) probeBeyondL1(now uint64, line int64, kind Kind) (Level, uint64) {
	if h.l2.lookup(line, kind == KindLoad || kind == KindStore) {
		return LevelL2, now + h.Cfg.L2.Latency
	}
	// L2 miss: offcore request.
	switch kind {
	case KindLoad, KindStore:
		h.Stats.OffcoreDemand++
	case KindSWPrefetch:
		h.Stats.OffcoreSWPrefetch++
	case KindHWPrefetch:
		h.Stats.OffcoreHWPrefetch++
	}
	if h.llc.lookup(line, kind == KindLoad || kind == KindStore) {
		return LevelLLC, now + h.Cfg.LLC.Latency
	}
	return LevelDRAM, h.dramRequest(now)
}

// Access performs a memory request at the given cycle. pc is the address
// of the requesting instruction (used by the IP-stride prefetcher and by
// profiling). For prefetch kinds the returned latency is the fixed issue
// cost; the fill completes asynchronously.
func (h *Hierarchy) Access(now uint64, pc uint64, addr int64, kind Kind) Result {
	if len(h.mshr) != 0 {
		h.drain(now)
	}
	line := lineOf(addr)

	switch kind {
	case KindSWPrefetch, KindHWPrefetch:
		return h.prefetch(now, line, kind)
	}

	// Demand load or store.
	h.Stats.DemandAccesses++
	if kind == KindLoad && h.stride != nil {
		h.trainStride(now, pc, addr)
	}

	if h.l1.lookup(line, true) {
		h.Stats.Hits[LevelL1]++
		h.Stats.StallCycles[LevelL1] += h.Cfg.L1.Latency
		return Result{Latency: h.Cfg.L1.Latency, Served: LevelL1}
	}

	if e := h.findMSHR(line); e != nil {
		// In flight: wait for the residual fill time.
		wait := e.ready - now
		res := Result{
			Latency: wait + h.Cfg.L1.Latency,
			Served:  LevelFB,
			FBHit:   true,
			FBHitSW: e.sw,
			LLCMiss: e.dram && !e.hw,
		}
		h.Stats.Hits[LevelFB]++
		h.Stats.FBHitAny++
		if e.sw {
			h.Stats.FBHitSWPrefetch++
		}
		h.Stats.StallCycles[LevelFB] += res.Latency
		e.used = true
		e.toL1 = true
		// The demand consumed the fill: complete it now.
		h.installFill(*e)
		h.removeMSHR(line)
		return res
	}

	served, done := h.probeBeyondL1(now, line, kind)
	lat := done - now
	h.Stats.Hits[served]++
	h.Stats.StallCycles[served] += lat
	// The core blocks on demand misses, so the fill is complete by the
	// time execution resumes: install immediately. The probes above
	// already know each level's state, so no level is scanned twice: L1
	// and every level that missed only need a fill, and a level that hit
	// already made the line most recently used. Only the LLC behind an
	// L2 hit was never probed.
	if h.l1.fill(line, false, false).swPrefUnused {
		h.Stats.SWPrefetchUnusedEvicted++
	}
	switch served {
	case LevelL2:
		h.llc.install(line, false, false)
	case LevelLLC:
		h.l2.fill(line, false, false)
	case LevelDRAM:
		h.l2.fill(line, false, false)
		h.llc.fill(line, false, false)
	}

	if served == LevelDRAM && h.Cfg.NextLinePrefetcher {
		h.nextLine(now, line)
	}
	return Result{Latency: lat, Served: served, LLCMiss: served == LevelDRAM}
}

func (h *Hierarchy) removeMSHR(line int64) {
	for i := range h.mshr {
		if h.mshr[i].line == line {
			h.mshr = append(h.mshr[:i], h.mshr[i+1:]...)
			return
		}
	}
}

// prefetch handles SW and HW prefetch requests.
func (h *Hierarchy) prefetch(now uint64, line int64, kind Kind) Result {
	sw := kind == KindSWPrefetch
	if sw {
		h.Stats.SWPrefetchIssued++
	} else {
		h.Stats.HWPrefetchIssued++
	}

	if sw && h.l1.lookup(line, false) {
		h.Stats.SWPrefetchCacheHit++
		return Result{Latency: 1, Served: LevelL1}
	}
	if !sw && h.l2.lookup(line, false) {
		return Result{Latency: 0, Served: LevelL2}
	}
	if h.findMSHR(line) != nil {
		if sw {
			h.Stats.SWPrefetchMerged++
		}
		return Result{Latency: 1, Served: LevelFB}
	}
	if len(h.mshr) >= h.Cfg.FillBuffers {
		if sw {
			h.Stats.SWPrefetchDroppedFull++
		}
		return Result{Latency: 1, Served: LevelFB}
	}

	served, done := h.probeBeyondL1(now, line, kind)
	if served == LevelL2 && sw {
		// Promote to L1 asynchronously.
		h.mshr = append(h.mshr, mshrEntry{line: line, ready: done, sw: true, toL1: true})
		return Result{Latency: 1, Served: served}
	}
	if served == LevelL2 {
		return Result{Latency: 0, Served: served}
	}
	h.mshr = append(h.mshr, mshrEntry{
		line: line, ready: done,
		sw: sw, hw: !sw,
		toL1: sw, // SW prefetch targets L1 (prefetcht0); HW fills stop at L2
		dram: served == LevelDRAM,
	})
	return Result{Latency: 1, Served: served}
}

// trainStride updates the IP-stride predictor and issues HW prefetches
// for the in-range addresses of the window it returns.
func (h *Hierarchy) trainStride(now uint64, pc uint64, addr int64) {
	stride, n := h.stride.observe(pc, addr)
	for k := 1; k <= n; k++ {
		if t := addr + stride*int64(k); t >= 0 {
			h.prefetch(now, lineOf(t), KindHWPrefetch)
		}
	}
}

// nextLine issues the L2 next-line prefetch.
func (h *Hierarchy) nextLine(now uint64, line int64) {
	h.prefetch(now, line+1, KindHWPrefetch)
}

// Flush drops all cached lines and in-flight fills (between experiment
// phases). Statistics are preserved.
func (h *Hierarchy) Flush() {
	h.l1 = newCache(h.Cfg.L1)
	h.l2 = newCache(h.Cfg.L2)
	h.llc = newCache(h.Cfg.LLC)
	h.mshr = h.mshr[:0]
	h.dramNextFree = 0
}

// ResetStats zeroes the counters (after warmup).
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

// InFlight returns the number of occupied fill buffers (tests).
func (h *Hierarchy) InFlight() int { return len(h.mshr) }

// L1Contains reports whether the line holding addr is in L1 (tests).
func (h *Hierarchy) L1Contains(addr int64) bool { return h.l1.contains(lineOf(addr)) }

// L2Contains reports whether the line holding addr is in L2 (tests).
func (h *Hierarchy) L2Contains(addr int64) bool { return h.l2.contains(lineOf(addr)) }
