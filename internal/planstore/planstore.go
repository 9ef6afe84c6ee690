// Package planstore is aptgetd's content-addressed plan cache: a
// bounded in-memory LRU (Local) under two serving policies:
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
	"sync"
	"sync/atomic"

	"aptget/internal/wire"
)

// Key addresses one profile's plans.
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

// Store layers single-flight and stale-shape matching over a Local LRU.
type Store struct {
	mu       sync.Mutex // serializes the lookup→flight decision
	lru      *Local
	inflight map[Key]*call

	hits, staleMatches, misses atomic.Int64
}

// DefaultCapacity bounds the cache when New is given a non-positive
// capacity.
const DefaultCapacity = 512

// New returns a store holding at most capacity plan sets (≤0 selects
// DefaultCapacity).
func New(capacity int) *Store {
	return &Store{
		lru:      NewLocal(capacity),
		inflight: make(map[Key]*call),
	}
}

// Len returns the number of cached plan sets.
func (s *Store) Len() int { return s.lru.Len() }

// Counters exports the policy counters merged with the LRU's, under the
// names /v1/metrics serves.
func (s *Store) Counters() map[string]int64 {
	c := s.lru.Counters()
	c["plan_cache_hits"] = s.hits.Load()
	c["plan_cache_stale_matches"] = s.staleMatches.Load()
	c["plan_cache_misses"] = s.misses.Load()
	return c
}

// Get looks up plans by exact profile fingerprint (the GET /v1/plans
// path). Does not count hits or misses; ingestion owns that accounting.
func (s *Store) Get(fp wire.Fingerprint) (Entry, bool) {
	e, _, ok := s.lru.Lookup(fp)
	return e, ok
}

// Hit serves an exact repeat by fingerprint alone, before the profile is
// decoded: it returns the entry and the key it is stored under, and
// counts a hit as GetOrCompute's exact-hit step does. An entry stored
// without a shape is not served, since the ingest reply needs the
// shape hash; the caller then decodes and calls GetOrCompute.
func (s *Store) Hit(fp wire.Fingerprint) (Entry, Key, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, key, ok := s.lru.Lookup(fp)
	if !ok || key.Shape == "" {
		return Entry{}, Key{}, false
	}
	s.hits.Add(1)
	return e, key, true
}

// Put stores externally computed plans under key, counting nothing.
// Its caller is perfbench's traced serve replay
// (perfbench/traced_serve.go), which seeds its cache with plans it
// computed outside the store.
func (s *Store) Put(key Key, e Entry) { s.lru.Put(key, e) }

// TryGet serves key from the cache or a same-shape stale entry without
// ever computing. Its caller is perfbench's traced serve replay
// (perfbench/traced_serve.go), which times the lookup apart from the
// analysis a miss then runs.
func (s *Store) TryGet(key Key) ([]byte, Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.lru.LookupKey(key); ok {
		s.hits.Add(1)
		return e.Plans, Result{Outcome: OutcomeHit, Source: e.Source}, true
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
	if e, ok := s.lru.LookupKey(key); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		return e.Plans, Result{Outcome: OutcomeHit, Source: e.Source}, nil
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
		s.lru.Put(key, Entry{Plans: c.plans, Source: c.src})
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
	e, ok := s.lru.LookupShape(key.Shape)
	if !ok {
		return Entry{}, false
	}
	s.staleMatches.Add(1)
	s.lru.Put(key, e)
	return e, true
}
