package qcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts lookups answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran the compute function.
	Misses int64 `json:"misses"`
	// Coalesced counts lookups that piggybacked on an identical in-flight
	// computation instead of starting their own (the singleflight wins).
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU policy.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached values across all shards.
	Entries int `json:"entries"`
	// Capacity is the total configured capacity across all shards.
	Capacity int `json:"capacity"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// Bytes is the approximate payload occupancy across all shards: the
	// sum of key lengths plus sized values (see WithSizer). It measures
	// payload — the service sizes each value as its response's compact
	// JSON — not Go heap overhead.
	Bytes int64 `json:"bytes"`
	// PerShard is the live occupancy of each shard in shard order —
	// the skew view needed to size shard counts and spot hot shards.
	PerShard []ShardStats `json:"per_shard"`
}

// ShardStats is one shard's live occupancy.
type ShardStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

type entry[V any] struct {
	key  string
	val  V
	size int // sized bytes of key+val at insert time
}

// call is one in-flight computation other callers can wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type shard[V any] struct {
	mu       sync.Mutex
	items    map[string]*list.Element // key -> *entry in order
	order    *list.List               // front = most recently used
	inflight map[string]*call[V]
	capacity int
	bytes    int64 // sum of entry sizes (see Cache.sizer)
}

// Cache is a sharded LRU memoization cache. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	shards    []*shard[V]
	sizer     func(V) int // approximate value bytes; nil = count keys only
	hits      obs.Counter
	misses    obs.Counter
	coalesced obs.Counter
	evictions obs.Counter
}

// New builds a cache holding up to capacity entries spread over nshards
// shards. Out-of-range arguments are clamped: capacity to >= 1, nshards to
// [1, capacity]. Per-shard capacity is rounded up, so the effective total
// capacity is at most capacity+nshards-1.
func New[V any](capacity, nshards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > capacity {
		nshards = capacity
	}
	perShard := (capacity + nshards - 1) / nshards
	c := &Cache[V]{shards: make([]*shard[V], nshards)}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			items:    make(map[string]*list.Element),
			order:    list.New(),
			inflight: make(map[string]*call[V]),
			capacity: perShard,
		}
	}
	return c
}

// WithSizer sets fn as the value-size estimator behind the byte occupancy
// stats: each entry is accounted as len(key) + fn(value). Construction-
// time only (call immediately after New, before any concurrent use); a
// cache without a sizer counts key bytes alone.
func (c *Cache[V]) WithSizer(fn func(V) int) *Cache[V] {
	c.sizer = fn
	return c
}

// fnv64a is inlined to keep shard selection allocation-free.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return c.shards[fnv64a(key)%uint64(len(c.shards))]
}

// Get returns the cached value for key, if present, refreshing its
// recency and counting a hit; an absent key counts nothing. It never
// computes and never waits on a flight: a caller that finds nothing goes
// on to DoEvents, which counts that lookup's own outcome. The service's
// body index reads the analyze cache this way, so that a repeat it
// answers counts exactly one hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// EventRecorder receives cache-pressure annotations from DoEvents — in
// practice the request's flight-recorder trace (*obs.Trace satisfies it
// with nil-safe methods). Kept as a local interface so qcache stays a
// generic cache that merely reports what it did.
type EventRecorder interface {
	Event(name, detail string)
}

// Do returns the memoized value for key, computing it with compute on a
// miss. Concurrent Do calls for the same key are coalesced: exactly one
// runs compute, the rest wait and share its result. The bool reports
// whether the value came from the cache (true) rather than from a fresh or
// coalesced computation (false). Errors are returned to every waiter of
// that flight but are not cached. A panicking compute is converted into an
// error for every waiter — the flight is always resolved, so no caller can
// hang on a dead key.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (v V, cached bool, err error) {
	return c.DoEvents(key, nil, compute)
}

// DoEvents is Do with cache-pressure events delivered to ev (nil
// disables recording): "cache_coalesced" when this call piggybacked on
// an in-flight computation, and one "cache_evict" per LRU eviction this
// call's insert caused, with the evicted key as the detail. Events fire
// on the calling goroutine, so a per-request recorder needs no locking.
func (c *Cache[V]) DoEvents(key string, ev EventRecorder, compute func() (V, error)) (v V, cached bool, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		if ev != nil {
			ev.Event("cache_coalesced", key)
		}
		<-fl.done
		return fl.val, false, fl.err
	}
	fl := &call[V]{done: make(chan struct{})}
	s.inflight[key] = fl
	c.misses.Add(1)
	s.mu.Unlock()

	// The flight must resolve on every exit path — normal return, panic,
	// or runtime.Goexit — or waiters would block forever and every later
	// Do for this key would coalesce onto the dead flight.
	normal := false
	defer func() {
		if !normal {
			if r := recover(); r != nil {
				fl.err = fmt.Errorf("qcache: compute for %q panicked: %v", key, r)
			} else {
				fl.err = fmt.Errorf("qcache: compute for %q exited without returning", key)
			}
			err = fl.err
		}
		s.mu.Lock()
		delete(s.inflight, key)
		if fl.err == nil {
			s.insertLocked(c, key, fl.val, ev)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = compute()
	normal = true
	return fl.val, false, fl.err
}

// insertLocked adds an entry, evicting from the tail when over capacity;
// each eviction is reported to ev (when non-nil) with the evicted key. The
// key is not cached: DoEvents inserts only when its own flight resolves,
// and while that flight was open no other caller could insert the key.
// Caller holds s.mu.
func (s *shard[V]) insertLocked(c *Cache[V], key string, val V, ev EventRecorder) {
	size := len(key)
	if c.sizer != nil {
		size += c.sizer(val)
	}
	s.items[key] = s.order.PushFront(&entry[V]{key: key, val: val, size: size})
	s.bytes += int64(size)
	for s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		evicted := oldest.Value.(*entry[V])
		delete(s.items, evicted.key)
		s.bytes -= int64(evicted.size)
		c.evictions.Add(1)
		if ev != nil {
			ev.Event("cache_evict", evicted.key)
		}
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the approximate payload occupancy across all shards (see
// Stats.Bytes).
func (c *Cache[V]) Bytes() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Counters exposes the cache's live hit/miss/coalesced/eviction counters
// for registration in an obs.Registry: the counters stay owned (and
// updated) by the cache, the registry only reads them at scrape time, so
// /statsz and /metrics report from the very same atomics.
func (c *Cache[V]) Counters() (hits, misses, coalesced, evictions *obs.Counter) {
	return &c.hits, &c.misses, &c.coalesced, &c.evictions
}

// Stats snapshots the counters and per-shard occupancy.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Shards:    len(c.shards),
		PerShard:  make([]ShardStats, len(c.shards)),
	}
	for i, s := range c.shards {
		s.mu.Lock()
		st.PerShard[i] = ShardStats{Entries: s.order.Len(), Bytes: s.bytes}
		st.Entries += s.order.Len()
		st.Capacity += s.capacity
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
