// Package service is the serving layer of the probcons analyzer: HTTP/JSON
// handlers over the exact engine, with request validation, a sharded
// memoization cache keyed by the canonical query fingerprint, singleflight
// coalescing of concurrent identical queries, and a bounded worker pool
// every engine computation runs on.
//
// Endpoints (full reference with curl examples: docs/API.md):
//
//	POST /v1/analyze  — one fleet + model → exact Result (percent + nines)
//	POST /v1/sweep    — (n, p) grid → JSON lines, fanned over the pool
//	POST /v1/optimize — reliability budget → certified Frank-Wolfe allocation
//	POST /v1/tail     — deep-tail event mass, exact or importance-sampled
//	POST /v1/batch    — many of the four above in one request, deduplicated
//	GET  /v1/tables   — paper Tables 1–2, cached after first computation
//	GET  /v1/traces   — the request flight recorder, filtered
//	GET  /healthz     — liveness probe
//	GET  /statsz      — cache, pool, and request counters
//	GET  /metrics     — Prometheus text exposition (docs/OBSERVABILITY.md)
//
// DebugRequestsHandler renders the flight recorder for humans; the daemon
// mounts it at /debug/requests.
//
// Analyze and sweep requests may carry a correlated failure-domain block
// (domains); explicit fleets reference domains per node, uniform fleets
// and sweep cells are spread across them round-robin. Invariants: every
// validation failure is HTTP 400 (a body over the size limit 413) and no
// engine work is scheduled for it; cached answers are bit-identical to
// engine answers (the cache key is the canonical fingerprint, which two
// queries share only if their Results are provably equal); one request
// can never exceed MaxAnalyzeWork / MaxSweepWork estimated engine
// operations.
package service
