package mem

import (
	"fmt"
	"math"
)

// Per-way state bits.
const (
	flagPrefetch uint8 = 1 << iota // installed by a prefetch (SW or HW)
	flagSWPref                     // installed by a software prefetch specifically
	flagTouched                    // referenced by a demand access since install
)

// invalidLine marks an empty way. No line can equal it: lines are
// addr>>lineShift, so even the most negative address maps above it.
const invalidLine int64 = math.MinInt64

// cache is a single set-associative LRU cache level, stored as flat
// per-way arrays: way w of set s lives at index s*ways+w.
//
// Ways are never invalidated (Flush builds a fresh cache), and a fill
// takes the highest-numbered empty way, so the empty ways of a set are
// always [0, ways-filled[s]).
type cache struct {
	tags    []int64  // resident line, or invalidLine
	lru     []uint64 // larger = more recently used
	flags   []uint8
	filled  []uint32 // valid ways per set
	ways    int
	setMask int64
	lruTick uint64
}

func newCache(lc LevelConfig) *cache {
	n := lc.Sets()
	// The set index is line&(n-1); a non-power-of-two count would alias
	// sets and silently shrink the cache. Config.Validate catches this at
	// Hierarchy construction; fail loudly for direct constructions too.
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mem: %v", lc.Validate()))
	}
	c := &cache{
		tags:    make([]int64, n*lc.Ways),
		lru:     make([]uint64, n*lc.Ways),
		flags:   make([]uint8, n*lc.Ways),
		filled:  make([]uint32, n),
		ways:    lc.Ways,
		setMask: int64(n - 1),
	}
	for i := range c.tags {
		c.tags[i] = invalidLine
	}
	return c
}

// find returns the flat index of line's way, or -1.
func (c *cache) find(line int64) int {
	base := int(line&c.setMask) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == line {
			return base + i
		}
	}
	return -1
}

// lookup probes for a line; on hit it updates recency and the touched bit
// (when demand is true).
func (c *cache) lookup(line int64, demand bool) bool {
	i := c.find(line)
	if i < 0 {
		return false
	}
	c.lruTick++
	c.lru[i] = c.lruTick
	if demand {
		c.flags[i] |= flagTouched
	}
	return true
}

// evicted describes a victim pushed out by install.
type evicted struct {
	line           int64
	valid          bool
	prefetchUnused bool // installed by prefetch, never demanded: "too early"
	swPrefUnused   bool
}

// install places a line, evicting the LRU way of its set if needed. A
// line already present only has its recency refreshed.
func (c *cache) install(line int64, byPrefetch, bySWPrefetch bool) evicted {
	if i := c.find(line); i >= 0 {
		c.lruTick++
		c.lru[i] = c.lruTick
		return evicted{}
	}
	return c.fill(line, byPrefetch, bySWPrefetch)
}

// fill places a line the caller knows is absent: into the last empty way
// of its set, else over the first way with the smallest recency stamp.
func (c *cache) fill(line int64, byPrefetch, bySWPrefetch bool) evicted {
	s := int(line & c.setMask)
	base := s * c.ways
	var v int
	var ev evicted
	if f := int(c.filled[s]); f < c.ways {
		v = base + c.ways - 1 - f
		c.filled[s]++
	} else {
		lru := c.lru[base : base+c.ways]
		m := lru[0]
		for _, x := range lru[1:] {
			m = min(m, x)
		}
		i := 0
		for lru[i] != m {
			i++
		}
		v = base + i
		fl := c.flags[v]
		ev = evicted{
			line:           c.tags[v],
			valid:          true,
			prefetchUnused: fl&(flagPrefetch|flagTouched) == flagPrefetch,
			swPrefUnused:   fl&(flagSWPref|flagTouched) == flagSWPref,
		}
	}
	var fl uint8
	if byPrefetch {
		fl |= flagPrefetch
	}
	if bySWPrefetch {
		fl |= flagSWPref
	}
	c.lruTick++
	c.tags[v], c.lru[v], c.flags[v] = line, c.lruTick, fl
	return ev
}

// contains probes without updating recency (tests, invariant checks).
func (c *cache) contains(line int64) bool { return c.find(line) >= 0 }

// countValid returns the number of valid lines (tests).
func (c *cache) countValid() int {
	n := 0
	for _, f := range c.filled {
		n += int(f)
	}
	return n
}
