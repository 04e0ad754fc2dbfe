// Package plancache is the engine's compiled-plan cache: a bounded LRU map
// from (normalized SQL text, archive epoch) to an opaque compiled-plan
// entry. Repeated statements — the dominant shape of served traffic — skip
// parsing, JITS preparation and optimization entirely on a hit.
//
// Correctness hinges on the epoch: the engine bumps its archive epoch on
// every statement that changes data or statistics (DML, DDL, statistics
// migration, archive restore), and a cached entry is only returned while
// its epoch matches the engine's current one. A lookup that finds an entry
// from an older epoch discards it (counted as an invalidation, then a
// miss); the engine additionally sweeps stale entries eagerly on each bump
// so the invalidation counters move with the DML that caused them, not with
// the next unlucky reader.
//
// All operations are safe for concurrent use; hits and puts take one short
// mutex. Counters are cache-owned atomics; Scrape reports them as
// plan_cache_{hits,misses,evictions,invalidations}_total and the
// plan_cache_entries gauge.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// DefaultSize is the entry bound selected by a negative capacity.
const DefaultSize = 256

type entry struct {
	key   string
	epoch uint64
	value any
	elem  *list.Element
}

// Cache is one engine's plan cache. Create with New; a nil *Cache is a
// valid, always-missing cache (every method is nil-receiver safe), which is
// how a cache-disabled engine pays nothing.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	lru     *list.List // front = most recently used

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// New returns an empty cache bounded to capacity entries. capacity < 0
// selects DefaultSize; capacity == 0 returns nil (the disabled cache).
func New(capacity int) *Cache {
	if capacity == 0 {
		return nil
	}
	if capacity < 0 {
		capacity = DefaultSize
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*entry, capacity),
		lru:     list.New(),
	}
}

// Get returns the cached value for key if one exists at exactly the given
// epoch, marking it most recently used. An entry from another epoch is
// removed (an invalidation) and reported as a miss.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	if e.epoch != epoch {
		c.removeLocked(e)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits.Add(1)
	return e.value, true
}

// Put stores value under (key, epoch), replacing any previous entry for the
// key and evicting the least recently used entry if the size bound is hit.
func (c *Cache) Put(key string, epoch uint64, value any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.epoch = epoch
		e.value = value
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &entry{key: key, epoch: epoch, value: value}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.cap {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest.Value.(*entry))
		c.evictions.Add(1)
	}
}

// Invalidate removes every entry whose epoch differs from current and
// returns how many were dropped. The engine calls this as it bumps the
// archive epoch, so stale plans disappear with the DML that staled them.
func (c *Cache) Invalidate(current uint64) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.epoch != current {
			c.removeLocked(e)
			n++
		}
	}
	if n > 0 {
		c.invalidations.Add(uint64(n))
	}
	return n
}

// Remove drops the entry for key, if any, and reports whether one was
// removed. The engine calls it when a cached plan triggers mid-query
// re-optimization: the superseded plan must not serve the next execution.
// Counted as an invalidation — the plan was proven stale, just by observed
// cardinalities rather than by the epoch.
func (c *Cache) Remove(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.removeLocked(e)
	c.invalidations.Add(1)
	return true
}

// removeLocked unlinks e; the caller holds c.mu and accounts the cause.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
}

// Stats snapshots the counters. Safe on a nil cache (all zero).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Capacity:      c.cap,
	}
}

// Scrape appends the cache's plan_cache_* series to set; a nil (disabled)
// cache reads as zero.
func (c *Cache) Scrape(set *metrics.Set) {
	st := c.Stats()
	set.Counter("plan_cache_hits_total", "Statements served from the compiled-plan cache.", float64(st.Hits))
	set.Counter("plan_cache_misses_total", "Plan-cache lookups that found no live entry.", float64(st.Misses))
	set.Counter("plan_cache_evictions_total", "Entries evicted by the LRU size bound.", float64(st.Evictions))
	set.Counter("plan_cache_invalidations_total",
		"Entries dropped because the archive epoch moved past them.", float64(st.Invalidations))
	set.Gauge("plan_cache_entries", "Live entries in the compiled-plan cache.", float64(st.Entries))
}
