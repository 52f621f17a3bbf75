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
// The package also keeps a peer client and server (PeerClient,
// PeerServer) over the PQL2 wire (wire.go), whose two ops are EXEC (the
// owner answers the carried request, computing it on a miss) and GET (a
// cached value, never a compute). probconsd links neither them nor the
// wire: they remain only for the benchmark module's loopback peer probe.
package qcache
