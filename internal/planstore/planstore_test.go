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

// checkConsistent verifies the Local backend's structural invariants:
// every index entry points at a live list element, the exact-key and
// fingerprint indexes are exactly one per element, and Len agrees with
// all of them.
func checkConsistent(t *testing.T, b *Local) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	live := make(map[*entry]bool, b.ll.Len())
	for el := b.ll.Front(); el != nil; el = el.Next() {
		live[el.Value.(*entry)] = true
	}
	if len(live) != b.ll.Len() {
		t.Fatalf("list holds %d elements but %d distinct entries", b.ll.Len(), len(live))
	}
	if len(b.byKey) != b.ll.Len() || len(b.byFP) != b.ll.Len() {
		t.Fatalf("Len=%d but byKey=%d byFP=%d (indexes leaked or lost entries)",
			b.ll.Len(), len(b.byKey), len(b.byFP))
	}
	if len(b.byShape) > b.ll.Len() {
		t.Fatalf("byShape=%d exceeds Len=%d", len(b.byShape), b.ll.Len())
	}
	for k, el := range b.byKey {
		e := el.Value.(*entry)
		if !live[e] {
			t.Fatalf("byKey[%v] references an evicted element", k)
		}
		if e.key != k {
			t.Fatalf("byKey[%v] points at entry keyed %v", k, e.key)
		}
	}
	for fp, el := range b.byFP {
		e := el.Value.(*entry)
		if !live[e] {
			t.Fatalf("byFP[%s] references an evicted element", fp)
		}
		if e.key.Profile != fp {
			t.Fatalf("byFP[%s] points at entry keyed %v", fp, e.key)
		}
	}
	for sh, el := range b.byShape {
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
// identical-insert race: a Put whose key (or fingerprint) is already
// cached must refresh the surviving element's bytes and repoint the
// fingerprint and shape indexes at it. The pre-fix insert returned
// early after an LRU touch, so the refreshed bytes were dropped and the
// shape index kept serving the older alias.
func TestPutRefreshesExistingEntry(t *testing.T) {
	b := NewLocal(4)
	kA := key(1, "sA")
	kB := key(2, "sA") // same shape, different fingerprint (a stale alias)

	b.Put(kA, Entry{Plans: plans(1), Source: kA.Profile})
	b.Put(kB, Entry{Plans: plans(2), Source: kA.Profile})

	// Re-insert kA with fresh bytes — a direct Put re-publishing plans
	// for a fingerprint already cached.
	b.Put(kA, Entry{Plans: plans(3), Source: kA.Profile})

	got, ok := b.Lookup(kA.Profile)
	if !ok || !bytes.Equal(got.Plans, plans(3)) {
		t.Fatalf("Lookup(fpA) = %q/%v, want refreshed plans-003 (pre-fix bug: stale bytes)", got.Plans, ok)
	}
	if got, ok := b.LookupKey(kA); !ok || !bytes.Equal(got.Plans, plans(3)) {
		t.Fatalf("LookupKey(kA) = %q/%v, want refreshed plans-003", got.Plans, ok)
	}
	// The refresh made kA the freshest entry of its shape, so the shape
	// index must serve its bytes, not the older alias's.
	if got, ok := b.LookupShape("sA"); !ok || !bytes.Equal(got.Plans, plans(3)) {
		t.Fatalf("LookupShape(sA) = %q/%v, want repointed plans-003 (pre-fix bug: alias bytes)", got.Plans, ok)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (refresh must not duplicate)", b.Len())
	}
	checkConsistent(t, b)
}

// TestPutUpgradesFingerprintOnlyAlias: plans Put under a
// fingerprint-only key, then the full key of the same profile, must
// leave one entry carrying the shape instead of a second entry for the
// fingerprint.
func TestPutUpgradesFingerprintOnlyAlias(t *testing.T) {
	b := NewLocal(4)
	fp := wire.Fingerprint("fp-001")
	b.Put(Key{Profile: fp}, Entry{Plans: plans(1), Source: fp})
	if _, ok := b.LookupShape("sA"); ok {
		t.Fatal("fingerprint-only entry must not be shape-addressable")
	}

	full := Key{Profile: fp, Shape: "sA"}
	b.Put(full, Entry{Plans: plans(1), Source: fp})
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (upgrade, not duplicate)", b.Len())
	}
	if got, ok := b.LookupShape("sA"); !ok || !bytes.Equal(got.Plans, plans(1)) {
		t.Fatalf("LookupShape after upgrade = %q/%v", got.Plans, ok)
	}
	if got, ok := b.LookupKey(full); !ok || !bytes.Equal(got.Plans, plans(1)) {
		t.Fatalf("LookupKey after upgrade = %q/%v", got.Plans, ok)
	}
	// A fingerprint-only refresh arriving after the upgrade must not strip
	// the learned shape.
	b.Put(Key{Profile: fp}, Entry{Plans: plans(2), Source: fp})
	if got, ok := b.LookupShape("sA"); !ok || !bytes.Equal(got.Plans, plans(2)) {
		t.Fatalf("shape lost after fingerprint-only refresh: %q/%v", got.Plans, ok)
	}
	checkConsistent(t, b)
}

// TestEvictionChurnKeepsMapsConsistent drives a small cache through
// heavy churn with stale-match aliasing (many fingerprints per shape)
// and checks after every operation that no index leaks, no index
// references an evicted element, and Len agrees with the map sizes.
func TestEvictionChurnKeepsMapsConsistent(t *testing.T) {
	s := New(8)
	b := s.lru
	shapes := []string{"sA", "sB", "sC"}
	for i := 0; i < 200; i++ {
		k := key(i, shapes[i%len(shapes)])
		mustCompute(t, s, k, i)
		if i%7 == 0 { // sprinkle direct Puts into the churn
			b.Put(key(i/2, shapes[(i/2)%len(shapes)]), Entry{Plans: plans(i), Source: k.Profile})
		}
		if i%13 == 0 {
			s.Get(key(i/3, "").Profile) // fingerprint lookups touch LRU order
		}
		checkConsistent(t, b)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want capacity 8 after churn", s.Len())
	}
	// Every surviving fingerprint must serve exactly its own bytes.
	b.mu.Lock()
	entries := make(map[wire.Fingerprint][]byte)
	for el := b.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		entries[e.key.Profile] = e.plans
	}
	b.mu.Unlock()
	for fp, want := range entries {
		got, ok := s.Get(fp)
		if !ok || !bytes.Equal(got.Plans, want) {
			t.Fatalf("Get(%s) = %q/%v, want %q", fp, got.Plans, ok, want)
		}
	}
}
