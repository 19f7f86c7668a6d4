package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/attr"
)

// This file implements the hot-query result cache of the read path: a
// bounded, sharded cache of fully computed Route answers, coherent
// with the routing view by construction. Every entry records the
// process-unique ID of the RoutingView it was computed against, and a
// lookup only hits when that IS the view being queried — identity, the
// strictest possible epoch. Publishing a new view therefore
// invalidates the whole cache wholesale with zero coordination: no
// TTLs, no staleness window, no flush — a cached answer is
// definitionally identical to recomputation against the same view,
// and a new view simply never matches old entries. (Entries for
// superseded views are overwritten lazily as misses repopulate their
// slots; the cache is bounded, so at most Capacity stale entries
// linger. An entry holds its view's ID, not a pointer, so a stale one
// keeps nothing of the superseded view reachable.)
//
// Reads are lock-free: entries are immutable and published through
// atomic pointers, and a hit copies the answer into the caller's
// RouteScratch, so the steady-state hit path performs no allocation
// and no synchronization beyond a few atomic loads (plus the counter
// increments). Inserts serialize on a per-shard mutex and place the
// entry in one of two hash-derived candidate slots — a 2-candidate
// set-associative scheme with an alternating eviction hand, cheap and
// scan-resistant enough for the Zipf traffic the cache exists for:
// the hot head of the key distribution re-arms its slots constantly,
// while one-off cold queries at worst displace each other.

const (
	// routeCacheDefaultEntries is the capacity NewRouteCache(0) gives.
	routeCacheDefaultEntries = 4096
	// routeCacheMinEntries floors tiny requested capacities so the
	// 2-candidate scheme always has room to breathe.
	routeCacheMinEntries = 64
	// routeCacheShards is the insert-mutex shard count (power of two).
	routeCacheShards = 16
	// maxRouteCacheKeyBytes bounds the canonical key length the cache
	// will index; rarer-than-rare giant queries bypass it (counted).
	maxRouteCacheKeyBytes = 256
)

// routeCacheEntry is one immutable cached answer. The key is the
// query's canonical attr.Set key; view is the ID of the snapshot the
// answer was computed against.
type routeCacheEntry struct {
	view  uint64
	key   string
	total int
	hits  []RouteHit
}

// RouteCacheStats is a point-in-time snapshot of a cache's counters.
type RouteCacheStats struct {
	// Capacity is the entry-slot count (fixed at construction).
	Capacity int `json:"capacity"`
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that fell through to Route (each miss
	// inserts, so Misses also counts insertions).
	Misses int64 `json:"misses"`
	// Evictions counts insertions that displaced a live entry of the
	// same view (stale-view and empty slots are reclaimed silently).
	Evictions int64 `json:"evictions"`
	// Bypasses counts queries the cache declined to index (canonical
	// key over maxRouteCacheKeyBytes).
	Bypasses int64 `json:"bypasses"`
}

// RouteCache is a bounded, sharded, view-coherent cache of Route
// answers. Create one per serving process with NewRouteCache and pass
// it to RoutingView.RouteCached; all methods are safe for concurrent
// use. The zero value is not usable; a nil *RouteCache disables
// caching wherever one is accepted.
type RouteCache struct {
	mask  uint64
	slots []atomic.Pointer[routeCacheEntry]

	// Insert path: per-shard mutex plus the shard's eviction hand
	// (guarded by its mutex), alternating between the two candidate
	// slots when both hold live entries.
	mus  [routeCacheShards]sync.Mutex
	hand [routeCacheShards]uint64

	nHits      atomic.Int64
	nMisses    atomic.Int64
	nEvictions atomic.Int64
	nBypasses  atomic.Int64
}

// NewRouteCache builds a cache with at least the requested number of
// entry slots (rounded up to a power of two; <= 0 selects the default
// capacity of 4096).
func NewRouteCache(entries int) *RouteCache {
	if entries <= 0 {
		entries = routeCacheDefaultEntries
	}
	if entries < routeCacheMinEntries {
		entries = routeCacheMinEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &RouteCache{
		mask:  uint64(n - 1),
		slots: make([]atomic.Pointer[routeCacheEntry], n),
	}
}

// Stats returns a snapshot of the cache's counters.
func (c *RouteCache) Stats() RouteCacheStats {
	return RouteCacheStats{
		Capacity:  len(c.slots),
		Hits:      c.nHits.Load(),
		Misses:    c.nMisses.Load(),
		Evictions: c.nEvictions.Load(),
		Bypasses:  c.nBypasses.Load(),
	}
}

// routeCacheHash is FNV-1a over the canonical key, finalized with a
// murmur-style mixer so the low and high halves (the two candidate
// slot indexes) are independently well distributed even for the short
// keys single-attribute queries produce.
func routeCacheHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// keyEqual compares an entry's stored key with a transient key buffer
// without converting the buffer to a string (no allocation).
func keyEqual(s string, b []byte) bool {
	if len(s) != len(b) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup probes the two candidate slots for (v, key), copying a hit's
// answer into sc. Lock-free and allocation-free at steady state.
func (c *RouteCache) lookup(v *RoutingView, h uint64, key []byte, sc *RouteScratch) (total int, ok bool) {
	for _, i := range [2]uint64{h & c.mask, (h >> 32) & c.mask} {
		if e := c.slots[i].Load(); e != nil && e.view == v.id && keyEqual(e.key, key) {
			sc.hits = append(sc.hits[:0], e.hits...)
			return e.total, true
		}
	}
	return 0, false
}

// insert places a freshly computed answer into one of the two
// candidate slots, preferring an empty or superseded-view slot and
// evicting (alternating hand) only when both hold live entries. The
// entry is immutable from birth: the key and hit slice are copied, so
// callers keep ownership of their buffers.
func (c *RouteCache) insert(v *RoutingView, h uint64, key []byte, total int, hits []RouteHit) {
	e := &routeCacheEntry{
		view:  v.id,
		key:   string(key),
		total: total,
		hits:  append([]RouteHit(nil), hits...),
	}
	i1, i2 := h&c.mask, (h>>32)&c.mask
	shard := h & (routeCacheShards - 1)
	c.mus[shard].Lock()
	defer c.mus[shard].Unlock()
	e1, e2 := c.slots[i1].Load(), c.slots[i2].Load()
	victim := i1
	switch {
	case e1 == nil || e1.view != v.id || e1.key == e.key:
		victim = i1
	case e2 == nil || e2.view != v.id || e2.key == e.key:
		victim = i2
	default:
		// Both candidates hold live answers for this very view:
		// somebody has to go. Alternate so one hot collider cannot
		// permanently pin both slots.
		c.hand[shard]++
		if c.hand[shard]&1 == 1 {
			victim = i2
		}
		c.nEvictions.Add(1)
	}
	c.slots[victim].Store(e)
}

// RouteCached answers q like Route, consulting (and populating) the
// cache. A nil cache degrades to plain Route. Answers are
// byte-identical to Route against the same view by construction:
// entries are keyed by (view ID, canonical query key), so a hit
// replays an answer computed against this very snapshot — there is no
// staleness to reason about. On a hit the answer is copied into sc
// (the same ownership contract as Route: valid until sc's next use)
// and the call is allocation-free; a miss computes via Route and
// inserts. Queries whose canonical key exceeds the cache's key bound
// bypass it.
func (v *RoutingView) RouteCached(q attr.Set, c *RouteCache, sc *RouteScratch) (total int, hits []RouteHit) {
	if c == nil {
		return v.Route(q, sc)
	}
	sc.key = q.AppendKey(sc.key[:0])
	if len(sc.key) > maxRouteCacheKeyBytes {
		c.nBypasses.Add(1)
		return v.Route(q, sc)
	}
	h := routeCacheHash(sc.key)
	if total, ok := c.lookup(v, h, sc.key, sc); ok {
		c.nHits.Add(1)
		return total, sc.hits
	}
	c.nMisses.Add(1)
	total, hits = v.Route(q, sc)
	c.insert(v, h, sc.key, total, hits)
	return total, hits
}
