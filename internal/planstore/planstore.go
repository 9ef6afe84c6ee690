// Package planstore is aptgetd's content-addressed plan cache: a
// bounded in-memory LRU under two serving policies:
//
//   - Single-flight deduplication: N concurrent requests for one profile
//     trigger exactly one analysis.
//   - Stale-profile matching (after Ayupov et al.): an exact-fingerprint
//     miss is served from an entry whose loop structure matches, raw PCs
//     ignored, so plans survive binary drift without re-analysis.
//
// The store is safe for concurrent use and never blocks readers on a
// running computation for a *different* key.
package planstore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"aptget/internal/wire"
)

// Key addresses one profile's plans. Every producer derives Shape from
// the bytes it fingerprints, so a Profile fingerprint fixes its key.
type Key struct {
	Profile wire.Fingerprint
	Shape   wire.ShapeHash
}

// Entry is one stored plan set: the canonical wire plan-set bytes and
// the fingerprint of the profile they were computed from.
type Entry struct {
	Plans  []byte
	Source wire.Fingerprint
}

// Outcome says how a request was served.
type Outcome int

// Serving outcomes.
const (
	// OutcomeMiss: no usable entry; this request ran the analysis.
	OutcomeMiss Outcome = iota
	// OutcomeHit: exact fingerprint hit (including requests that waited
	// on an in-flight computation of the same key).
	OutcomeHit
	// OutcomeStaleMatch: exact fingerprint missed, but an entry with the
	// same loop-structure hash was served without re-running analysis.
	OutcomeStaleMatch
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeStaleMatch:
		return "stale_match"
	}
	return "miss"
}

// Result describes how a GetOrCompute call was served.
type Result struct {
	Outcome Outcome
	// Source is the fingerprint of the profile the served plans were
	// computed from. Equal to the request's fingerprint except on stale
	// matches, where it names the matched prior profile.
	Source wire.Fingerprint
}

// call is one in-flight computation other requests can wait on.
type call struct {
	done  chan struct{}
	plans []byte
	src   wire.Fingerprint
	err   error
}

// entry is one cached plan set and the key it is stored under.
type entry struct {
	key Key
	Entry
}

// Store is a bounded LRU of plan sets with two indexes — fingerprint
// (exact lookups and the GET path) and loop-shape hash (the most recent
// entry per structure, the stale-match path) — plus the computations
// in flight.
//
// Invariant: at most one entry per fingerprint. A put whose fingerprint
// is already stored refreshes the surviving element in place and
// repoints the shape index at it, rather than inserting a duplicate.
type Store struct {
	mu       sync.Mutex // guards ll, both indexes and inflight
	capacity int
	ll       *list.List                         // front = most recently used; values are *entry
	byFP     map[wire.Fingerprint]*list.Element // exact lookup
	byShape  map[wire.ShapeHash]*list.Element   // most recent entry per loop structure
	inflight map[Key]*call

	hits, staleMatches, misses, evictions atomic.Int64
}

// DefaultCapacity bounds the cache when New is given a non-positive
// capacity.
const DefaultCapacity = 512

// New returns a store holding at most capacity plan sets (≤0 selects
// DefaultCapacity).
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		ll:       list.New(),
		byFP:     make(map[wire.Fingerprint]*list.Element),
		byShape:  make(map[wire.ShapeHash]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// Len returns the number of cached plan sets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Counters exports the store's counters under the names /v1/metrics
// serves.
func (s *Store) Counters() map[string]int64 {
	return map[string]int64{
		"plan_cache_hits":          s.hits.Load(),
		"plan_cache_stale_matches": s.staleMatches.Load(),
		"plan_cache_misses":        s.misses.Load(),
		"plan_cache_evictions":     s.evictions.Load(),
	}
}

// Get looks up plans by exact profile fingerprint (the GET /v1/plans
// path). Does not count hits or misses; ingestion owns that accounting.
func (s *Store) Get(fp wire.Fingerprint) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.byFingerprint(fp)
	if !ok {
		return Entry{}, false
	}
	return en.Entry, true
}

// Hit serves an exact repeat by fingerprint alone, before the profile is
// decoded: it returns the entry and the key it is stored under, and
// counts a hit as GetOrCompute's exact-hit step does.
func (s *Store) Hit(fp wire.Fingerprint) (Entry, Key, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.byFingerprint(fp)
	if !ok {
		return Entry{}, Key{}, false
	}
	s.hits.Add(1)
	return en.Entry, en.key, true
}

// Put stores externally computed plans under key, counting nothing.
// Its caller is perfbench's traced serve replay
// (perfbench/traced_serve.go), which seeds its cache with plans it
// computed outside the store.
func (s *Store) Put(key Key, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, e)
}

// TryGet serves key from the cache or a same-shape stale entry without
// ever computing. Its caller is perfbench's traced serve replay
// (perfbench/traced_serve.go), which times the lookup apart from the
// analysis a miss then runs.
func (s *Store) TryGet(key Key) ([]byte, Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if en, ok := s.byFingerprint(key.Profile); ok {
		s.hits.Add(1)
		return en.Plans, Result{Outcome: OutcomeHit, Source: en.Source}, true
	}
	if e, ok := s.staleMatch(key); ok {
		return e.Plans, Result{Outcome: OutcomeStaleMatch, Source: e.Source}, true
	}
	return nil, Result{}, false
}

// GetOrCompute serves key from the cache, from a same-shape stale entry,
// from an in-flight computation of the same key, or — exactly once per
// key — by running compute. compute runs without the store lock held.
func (s *Store) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, Result, error) {
	s.mu.Lock()

	// 1. Exact hit.
	if en, ok := s.byFingerprint(key.Profile); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		return en.Plans, Result{Outcome: OutcomeHit, Source: en.Source}, nil
	}

	// 2. Same key already being computed: wait for it rather than
	// serving stale — the exact answer is moments away.
	if c, ok := s.inflight[key]; ok {
		s.hits.Add(1)
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, Result{}, c.err
		}
		return c.plans, Result{Outcome: OutcomeHit, Source: c.src}, nil
	}

	// 3. Stale match.
	if e, ok := s.staleMatch(key); ok {
		s.mu.Unlock()
		return e.Plans, Result{Outcome: OutcomeStaleMatch, Source: e.Source}, nil
	}

	// 4. Miss: this request owns the flight; concurrent requests for the
	// same key wait on it instead of duplicating the work.
	c := &call{done: make(chan struct{}), src: key.Profile}
	s.inflight[key] = c
	s.misses.Add(1)
	s.mu.Unlock()

	c.plans, c.err = compute()

	// Publish to the cache in the same critical section that drops the
	// flight, so a request arriving after it sees the cached entry rather
	// than opening a second flight.
	s.mu.Lock()
	if c.err == nil {
		s.put(key, Entry{Plans: c.plans, Source: c.src})
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)

	if c.err != nil {
		return nil, Result{}, c.err
	}
	return c.plans, Result{Outcome: OutcomeMiss, Source: c.src}, nil
}

// staleMatch finds an entry computed from a different profile of the
// same loop structure and aliases it under key, so the follow-up GET
// (and repeat ingests of this exact profile) hit exactly. The caller
// holds s.mu and serves the plans verbatim, without analysis.
func (s *Store) staleMatch(key Key) (Entry, bool) {
	el, ok := s.byShape[key.Shape]
	if !ok {
		return Entry{}, false
	}
	s.staleMatches.Add(1)
	s.ll.MoveToFront(el)
	e := el.Value.(*entry).Entry
	s.put(key, e)
	return e, true
}

// byFingerprint finds fp's entry and marks it most recently used. The
// caller holds s.mu.
func (s *Store) byFingerprint(fp wire.Fingerprint) (*entry, bool) {
	el, ok := s.byFP[fp]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// put stores plans under key at the LRU front, evicting past capacity.
// An insert whose fingerprint is already cached refreshes the surviving
// element in place and makes it the freshest of its shape. The caller
// holds s.mu.
func (s *Store) put(key Key, e Entry) {
	if el, ok := s.byFP[key.Profile]; ok {
		en := el.Value.(*entry)
		en.Entry = e
		s.byShape[en.key.Shape] = el
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&entry{key: key, Entry: e})
	s.byFP[key.Profile] = el
	s.byShape[key.Shape] = el
	for s.ll.Len() > s.capacity {
		back := s.ll.Back()
		old := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.byFP, old.key.Profile)
		if s.byShape[old.key.Shape] == back {
			delete(s.byShape, old.key.Shape)
		}
		s.evictions.Add(1)
	}
}
