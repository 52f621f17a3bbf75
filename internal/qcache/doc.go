// Package qcache is the memoization layer of the probcons serving stack: a
// sharded LRU cache with singleflight coalescing of concurrent identical
// computations.
//
// The analysis engine (internal/core.Analyze) is pure and deterministic,
// so its results can be memoized indefinitely under the canonical query
// fingerprint (core.FleetModelDomainsFingerprint). Sharding keeps lock
// contention bounded under concurrent serving load; singleflight
// guarantees that K simultaneous identical queries cost exactly one O(N^3)
// computation — the other K-1 callers block on the first caller's result.
// Failed computations are never cached, so transient errors do not poison
// the cache.
//
// The same package carries the fleet tier: PeerServer serves a member's
// cache to its peers and PeerClient routes a miss to the key's owner over
// the PQL2 wire protocol, whose two ops are EXEC (the owner answers the
// carried request, computing it under its own singleflight on a miss) and
// GET (a cached value, never a compute). No op stores a value on a peer.
// The -cache-dump file reuses the wire's key/value framing.
package qcache
