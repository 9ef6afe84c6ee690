package planstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aptget/internal/wire"
)

func key(i int, shape string) Key {
	return Key{
		Profile: wire.Fingerprint(fmt.Sprintf("fp-%03d", i)),
		Shape:   wire.ShapeHash(shape),
	}
}

func plans(i int) []byte { return []byte(fmt.Sprintf("plans-%03d", i)) }

func mustCompute(t *testing.T, s *Store, k Key, i int) Result {
	t.Helper()
	got, res, err := s.GetOrCompute(k, func() ([]byte, error) { return plans(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeMiss && !bytes.Equal(got, plans(i)) {
		t.Fatalf("computed plans corrupted: %q", got)
	}
	return res
}

func TestExactHitAfterMiss(t *testing.T) {
	s := New(4)
	k := key(1, "shape-A")
	if res := mustCompute(t, s, k, 1); res.Outcome != OutcomeMiss {
		t.Fatalf("first request outcome = %v, want miss", res.Outcome)
	}
	res := mustCompute(t, s, k, 99) // compute must NOT run again
	if res.Outcome != OutcomeHit || res.Source != k.Profile {
		t.Fatalf("second request = %+v, want exact hit", res)
	}
	got, ok := s.Get(k.Profile)
	if !ok || !bytes.Equal(got.Plans, plans(1)) {
		t.Fatalf("Get by fingerprint = %q/%v", got.Plans, ok)
	}
	c := s.Counters()
	if c["plan_cache_hits"] != 1 || c["plan_cache_misses"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestStaleMatchServesPriorPlansWithoutRecompute(t *testing.T) {
	s := New(4)
	orig := key(1, "shape-A")
	mustCompute(t, s, orig, 1)

	// Same loop structure, drifted fingerprint.
	drifted := key(2, "shape-A")
	computed := false
	got, res, err := s.GetOrCompute(drifted, func() ([]byte, error) {
		computed = true
		return plans(2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed {
		t.Fatal("stale match must not re-run analysis")
	}
	if res.Outcome != OutcomeStaleMatch || res.Source != orig.Profile {
		t.Fatalf("result = %+v, want stale match from %s", res, orig.Profile)
	}
	if !bytes.Equal(got, plans(1)) {
		t.Fatalf("stale match served %q, want the prior plans", got)
	}
	// The alias makes the drifted fingerprint exactly addressable.
	if aliased, ok := s.Get(drifted.Profile); !ok || !bytes.Equal(aliased.Plans, plans(1)) {
		t.Fatalf("drifted fingerprint not aliased: %q/%v", aliased.Plans, ok)
	}
	// A different shape must compute.
	other := key(3, "shape-B")
	if res := mustCompute(t, s, other, 3); res.Outcome != OutcomeMiss {
		t.Fatalf("different shape outcome = %v, want miss", res.Outcome)
	}
	c := s.Counters()
	if c["plan_cache_stale_matches"] != 1 || c["plan_cache_misses"] != 2 {
		t.Fatalf("counters = %v", c)
	}
}

// TestHitByFingerprint: Hit answers from the fingerprint alone with the
// stored key, keeps a stale alias's source, and counts exactly the hits
// it serves.
func TestHitByFingerprint(t *testing.T) {
	s := New(4)
	orig, drifted := key(1, "shape-A"), key(2, "shape-A")
	mustCompute(t, s, orig, 1)
	mustCompute(t, s, drifted, 2) // stale match, aliased under drifted

	for _, c := range []struct {
		k   Key
		src wire.Fingerprint
	}{{orig, orig.Profile}, {drifted, orig.Profile}} {
		e, k, ok := s.Hit(c.k.Profile)
		if !ok || k != c.k || e.Source != c.src || !bytes.Equal(e.Plans, plans(1)) {
			t.Fatalf("Hit(%s) = %q src %s key %+v ok %v; want plans-001 from %s under %+v",
				c.k.Profile, e.Plans, e.Source, k, ok, c.src, c.k)
		}
	}
	if _, _, ok := s.Hit(key(4, "shape-A").Profile); ok {
		t.Fatal("Hit served an unknown fingerprint")
	}
	c := s.Counters()
	if c["plan_cache_hits"] != 2 || c["plan_cache_misses"] != 1 || c["plan_cache_stale_matches"] != 1 {
		t.Fatalf("counters = %v, want 2 hits, 1 miss, 1 stale match", c)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(2)
	a, b, c := key(1, "sA"), key(2, "sB"), key(3, "sC")
	mustCompute(t, s, a, 1)
	mustCompute(t, s, b, 2)
	mustCompute(t, s, a, 1) // touch a; b becomes LRU
	mustCompute(t, s, c, 3) // evicts b
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(b.Profile); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := s.Get(a.Profile); !ok {
		t.Fatal("a (recently used) should survive")
	}
	// The evicted shape no longer stale-matches.
	if res := mustCompute(t, s, key(4, "sB"), 4); res.Outcome != OutcomeMiss {
		t.Fatalf("evicted shape outcome = %v, want miss", res.Outcome)
	}
	if got := s.Counters()["plan_cache_evictions"]; got < 1 {
		t.Fatalf("evictions = %d, want >= 1", got)
	}
}

// TestEvictionKeepsFresherShapeIndex: evicting an old entry must not
// drop the shape index when a fresher entry with the same shape exists.
func TestEvictionKeepsFresherShapeIndex(t *testing.T) {
	s := New(2)
	old := key(1, "sA")
	mustCompute(t, s, old, 1)
	fresh := key(2, "sA") // stale-aliases old, byShape now points here
	mustCompute(t, s, fresh, 2)
	mustCompute(t, s, key(3, "sB"), 3) // evicts `old` (LRU back)
	// sA must still stale-match through the fresher alias.
	res := mustCompute(t, s, key(4, "sA"), 4)
	if res.Outcome != OutcomeStaleMatch {
		t.Fatalf("outcome = %v, want stale match via surviving alias", res.Outcome)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	s := New(8)
	k := key(1, "sA")
	var computes atomic.Int64
	release := make(chan struct{})
	const n = 32

	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, res, err := s.GetOrCompute(k, func() ([]byte, error) {
				computes.Add(1)
				<-release // hold every other goroutine in the waiting path
				return plans(1), nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = res.Outcome
		}(i)
	}
	// Let the flight start, then release it. A racing goroutine that
	// arrives after completion still hits the cache; either way compute
	// runs once.
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	miss := 0
	for _, o := range outcomes {
		if o == OutcomeMiss {
			miss++
		}
	}
	if miss != 1 {
		t.Fatalf("%d requests reported miss, want 1", miss)
	}
	c := s.Counters()
	if c["plan_cache_misses"] != 1 || c["plan_cache_hits"] != n-1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestComputeErrorIsNotCached(t *testing.T) {
	s := New(4)
	k := key(1, "sA")
	boom := errors.New("analysis exploded")
	if _, _, err := s.GetOrCompute(k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s.Len() != 0 {
		t.Fatal("failed computation was cached")
	}
	// Next request retries.
	if res := mustCompute(t, s, k, 1); res.Outcome != OutcomeMiss {
		t.Fatalf("retry outcome = %v, want miss", res.Outcome)
	}
}

// checkConsistent verifies the store's structural invariants: every
// index entry points at a live list element under its own key, the
// fingerprint index holds exactly one per element, and Len agrees.
func checkConsistent(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[*entry]bool, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		live[el.Value.(*entry)] = true
	}
	if len(live) != s.ll.Len() {
		t.Fatalf("list holds %d elements but %d distinct entries", s.ll.Len(), len(live))
	}
	if len(s.byFP) != s.ll.Len() {
		t.Fatalf("Len=%d but byFP=%d (index leaked or lost entries)", s.ll.Len(), len(s.byFP))
	}
	if len(s.byShape) > s.ll.Len() {
		t.Fatalf("byShape=%d exceeds Len=%d", len(s.byShape), s.ll.Len())
	}
	for fp, el := range s.byFP {
		e := el.Value.(*entry)
		if !live[e] {
			t.Fatalf("byFP[%s] references an evicted element", fp)
		}
		if e.key.Profile != fp {
			t.Fatalf("byFP[%s] points at entry keyed %v", fp, e.key)
		}
	}
	for sh, el := range s.byShape {
		e := el.Value.(*entry)
		if !live[e] {
			t.Fatalf("byShape[%s] references an evicted element", sh)
		}
		if e.key.Shape != sh {
			t.Fatalf("byShape[%s] points at entry keyed %v", sh, e.key)
		}
	}
}

// TestPutRefreshesExistingEntry is the regression test for the
// identical-insert race: a Put whose fingerprint is already cached must
// refresh the surviving element's bytes and repoint the shape index at
// it. The pre-fix insert returned early after an LRU touch, so the
// refreshed bytes were dropped and the shape index kept serving the
// older alias.
func TestPutRefreshesExistingEntry(t *testing.T) {
	s := New(4)
	kA := key(1, "sA")
	kB := key(2, "sA") // same shape, different fingerprint (a stale alias)

	s.Put(kA, Entry{Plans: plans(1), Source: kA.Profile})
	s.Put(kB, Entry{Plans: plans(2), Source: kA.Profile})

	// Re-insert kA with fresh bytes — a direct Put re-publishing plans
	// for a fingerprint already cached.
	s.Put(kA, Entry{Plans: plans(3), Source: kA.Profile})

	if got, ok := s.Get(kA.Profile); !ok || !bytes.Equal(got.Plans, plans(3)) {
		t.Fatalf("Get(fpA) = %q/%v, want refreshed plans-003 (pre-fix bug: stale bytes)", got.Plans, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (refresh must not duplicate)", s.Len())
	}
	checkConsistent(t, s)
	// The refresh made kA the freshest entry of its shape, so a stale
	// match on that shape must serve its bytes, not the older alias's.
	if got, res, ok := s.TryGet(key(3, "sA")); !ok || res.Outcome != OutcomeStaleMatch || !bytes.Equal(got, plans(3)) {
		t.Fatalf("stale match on sA = %q/%v/%v, want repointed plans-003 (pre-fix bug: alias bytes)", got, res.Outcome, ok)
	}
	checkConsistent(t, s)
}

// TestEvictionChurnKeepsMapsConsistent drives a small cache through
// heavy churn with stale-match aliasing (many fingerprints per shape)
// and checks after every operation that no index leaks, no index
// references an evicted element, and Len agrees with the map sizes.
func TestEvictionChurnKeepsMapsConsistent(t *testing.T) {
	s := New(8)
	shapes := []string{"sA", "sB", "sC"}
	for i := 0; i < 200; i++ {
		k := key(i, shapes[i%len(shapes)])
		mustCompute(t, s, k, i)
		if i%7 == 0 { // sprinkle direct Puts into the churn
			s.Put(key(i/2, shapes[(i/2)%len(shapes)]), Entry{Plans: plans(i), Source: k.Profile})
		}
		if i%13 == 0 {
			s.Get(key(i/3, "").Profile) // fingerprint lookups touch LRU order
		}
		checkConsistent(t, s)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want capacity 8 after churn", s.Len())
	}
	// Every surviving fingerprint must serve exactly its own bytes.
	s.mu.Lock()
	entries := make(map[wire.Fingerprint][]byte)
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		entries[e.key.Profile] = e.Plans
	}
	s.mu.Unlock()
	for fp, want := range entries {
		got, ok := s.Get(fp)
		if !ok || !bytes.Equal(got.Plans, want) {
			t.Fatalf("Get(%s) = %q/%v, want %q", fp, got.Plans, ok, want)
		}
	}
}
