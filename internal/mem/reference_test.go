package mem

import (
	"math/rand"
	"testing"
)

// refWay is one resident line of the reference model.
type refWay struct {
	line                      int64
	prefetch, swPref, touched bool
}

// refCache is a trivial fully-correct model of one set-associative LRU
// cache: a map from set to an ordered slice (MRU first).
type refCache struct {
	sets map[int64][]refWay
	mask int64
	ways int
}

func newRefCache(lc LevelConfig) *refCache {
	return &refCache{sets: make(map[int64][]refWay), mask: int64(lc.Sets() - 1), ways: lc.Ways}
}

// touch moves line to the front of its set and reports whether it was
// present; demand marks it referenced.
func (r *refCache) touch(line int64, demand bool) bool {
	s := r.sets[line&r.mask]
	for i, w := range s {
		if w.line == line {
			copy(s[1:i+1], s[:i])
			w.touched = w.touched || demand
			s[0] = w
			return true
		}
	}
	return false
}

func (r *refCache) lookup(line int64, demand bool) bool { return r.touch(line, demand) }

// install refreshes a present line, or inserts it at the front and
// evicts the LRU line of a full set.
func (r *refCache) install(line int64, byPrefetch, bySWPrefetch bool) evicted {
	if r.touch(line, false) {
		return evicted{}
	}
	key := line & r.mask
	s := append([]refWay{{line: line, prefetch: byPrefetch, swPref: bySWPrefetch}}, r.sets[key]...)
	var ev evicted
	if len(s) > r.ways {
		v := s[r.ways]
		ev = evicted{
			line:           v.line,
			valid:          true,
			prefetchUnused: v.prefetch && !v.touched,
			swPrefUnused:   v.swPref && !v.touched,
		}
		s = s[:r.ways]
	}
	r.sets[key] = s
	return ev
}

func (r *refCache) count() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// TestCacheMatchesReferenceModel drives the production cache and the
// reference model with the same random operation stream — demand and
// non-demand lookups, demand, hardware-prefetch and software-prefetch
// installs, and fills of lines known to be absent — and requires
// identical hit/miss results and identical eviction reports throughout,
// for direct-mapped through 16-way sets.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		const sets = 4
		lc := LevelConfig{SizeBytes: int64(sets*ways) * LineSize, Ways: ways, Latency: 1}
		span := int64(3 * sets * ways)
		for seed := int64(0); seed < 10; seed++ {
			c := newCache(lc)
			ref := newRefCache(lc)
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 5000; op++ {
				line := rng.Int63n(2*span) - span // negative lines too
				byPref := rng.Intn(3) != 0
				bySW := byPref && rng.Intn(2) == 0
				switch rng.Intn(4) {
				case 0:
					demand := rng.Intn(4) != 0
					got, want := c.lookup(line, demand), ref.lookup(line, demand)
					if got != want {
						t.Fatalf("ways %d seed %d op %d: lookup(%d) = %v, ref %v",
							ways, seed, op, line, got, want)
					}
				case 1, 2:
					got, want := c.install(line, byPref, bySW), ref.install(line, byPref, bySW)
					if got != want {
						t.Fatalf("ways %d seed %d op %d: install(%d) evicted %+v, ref %+v",
							ways, seed, op, line, got, want)
					}
				case 3:
					if c.contains(line) {
						continue
					}
					got, want := c.fill(line, byPref, bySW), ref.install(line, byPref, bySW)
					if got != want {
						t.Fatalf("ways %d seed %d op %d: fill(%d) evicted %+v, ref %+v",
							ways, seed, op, line, got, want)
					}
				}
			}
			if got, want := c.countValid(), ref.count(); got != want {
				t.Fatalf("ways %d seed %d: %d valid lines, ref %d", ways, seed, got, want)
			}
		}
	}
}

// TestHierarchyInclusionAfterDemand verifies that a demand-loaded line is
// visible at L1 and L2 immediately after the access.
func TestHierarchyInclusionAfterDemand(t *testing.T) {
	h := New(ConfigScaled(), 1<<20)
	for i := int64(0); i < 32; i++ {
		addr := i * 4096
		h.Access(uint64(i)*300, 1, addr, KindLoad)
		if !h.L1Contains(addr) || !h.L2Contains(addr) {
			t.Fatalf("line %d not installed through the hierarchy", i)
		}
	}
}

// TestDeterministicAccessStream replays an access stream twice and
// requires identical statistics.
func TestDeterministicAccessStream(t *testing.T) {
	run := func() Stats {
		h := New(ConfigScaled(), 1<<22)
		rng := rand.New(rand.NewSource(77))
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			addr := rng.Int63n(1 << 21)
			kind := KindLoad
			switch rng.Intn(10) {
			case 0:
				kind = KindStore
			case 1:
				kind = KindSWPrefetch
			}
			r := h.Access(now, uint64(rng.Intn(50)), addr, kind)
			now += r.Latency + 1
		}
		return h.Stats
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("memory system not deterministic:\n%+v\n%+v", a, b)
	}
}
