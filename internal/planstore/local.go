package planstore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"aptget/internal/wire"
)

// entry is one cached plan set.
type entry struct {
	key    Key
	plans  []byte // canonical wire plan-set bytes
	source wire.Fingerprint
}

// Local is the Store's storage: a bounded LRU of plan sets with three
// indexes — exact key, fingerprint (the GET path), and loop-shape hash
// (most recent entry per structure, the stale-match path).
//
// Invariant: at most one entry per fingerprint. A Put whose fingerprint
// is already stored refreshes the surviving element in place and
// repoints every index at it, rather than inserting a duplicate. (The
// pre-fix code returned early from an identical insert without
// repointing byFP/byShape, so after churn the secondary indexes could
// keep serving an entry the LRU had already replaced.)
type Local struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List                         // front = most recently used; values are *entry
	byKey    map[Key]*list.Element              // exact lookup
	byFP     map[wire.Fingerprint]*list.Element // GET /v1/plans/{fp} lookup
	byShape  map[wire.ShapeHash]*list.Element   // most recent entry per loop structure

	evictions atomic.Int64
}

// NewLocal returns an LRU backend holding at most capacity plan sets
// (≤0 selects DefaultCapacity).
func NewLocal(capacity int) *Local {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Local{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		byFP:     make(map[wire.Fingerprint]*list.Element),
		byShape:  make(map[wire.ShapeHash]*list.Element),
	}
}

// Len returns the number of cached plan sets.
func (b *Local) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ll.Len()
}

// Counters exports the backend's counters.
func (b *Local) Counters() map[string]int64 {
	return map[string]int64{
		"plan_cache_evictions": b.evictions.Load(),
	}
}

// Lookup finds plans by exact profile fingerprint, with the key they
// are stored under.
func (b *Local) Lookup(fp wire.Fingerprint) (Entry, Key, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.byFP[fp]
	if !ok {
		return Entry{}, Key{}, false
	}
	b.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return Entry{Plans: e.plans, Source: e.source}, e.key, true
}

// LookupKey finds plans by exact key.
func (b *Local) LookupKey(key Key) (Entry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.byKey[key]
	if !ok {
		return Entry{}, false
	}
	b.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return Entry{Plans: e.plans, Source: e.source}, true
}

// LookupShape finds the most recently stored same-shape entry.
func (b *Local) LookupShape(shape wire.ShapeHash) (Entry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if shape == "" {
		return Entry{}, false
	}
	el, ok := b.byShape[shape]
	if !ok {
		return Entry{}, false
	}
	b.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return Entry{Plans: e.plans, Source: e.source}, true
}

// Put stores plans under key at the LRU front, evicting past capacity.
// An insert whose fingerprint is already cached — a repeated insert, or
// a shape upgrade of an entry stored under a fingerprint-only key —
// refreshes the surviving element in place and repoints the fingerprint
// and shape indexes at it.
func (b *Local) Put(key Key, e Entry) {
	b.mu.Lock()
	defer b.mu.Unlock()

	if el, ok := b.byFP[key.Profile]; ok {
		en := el.Value.(*entry)
		en.plans, en.source = e.Plans, e.Source
		if key.Shape != "" && en.key != key {
			// Re-index under the richer key (a fingerprint-only entry
			// learning its shape, or a pathological shape change): drop
			// the old key and its shape index if this element owned it.
			delete(b.byKey, en.key)
			if en.key.Shape != "" && en.key.Shape != key.Shape && b.byShape[en.key.Shape] == el {
				delete(b.byShape, en.key.Shape)
			}
			en.key = key
			b.byKey[key] = el
		}
		if en.key.Shape != "" {
			b.byShape[en.key.Shape] = el // repoint: this element is now the freshest of its shape
		}
		b.ll.MoveToFront(el)
		return
	}

	el := b.ll.PushFront(&entry{key: key, plans: e.Plans, source: e.Source})
	b.byKey[key] = el
	b.byFP[key.Profile] = el
	if key.Shape != "" {
		b.byShape[key.Shape] = el
	}
	for b.ll.Len() > b.capacity {
		back := b.ll.Back()
		old := back.Value.(*entry)
		b.ll.Remove(back)
		delete(b.byKey, old.key)
		delete(b.byFP, old.key.Profile) // one entry per fingerprint, so this index is ours
		if old.key.Shape != "" && b.byShape[old.key.Shape] == back {
			delete(b.byShape, old.key.Shape)
		}
		b.evictions.Add(1)
	}
}
