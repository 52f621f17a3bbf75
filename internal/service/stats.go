package service

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/qcache"
)

// PoolStats snapshots the sweep worker pool.
type PoolStats struct {
	Workers     int   `json:"workers"`
	ActiveCells int64 `json:"active_cells"`
	CellsDone   int64 `json:"cells_done"`
}

// RequestStats counts requests served per endpoint.
type RequestStats struct {
	Analyze  int64 `json:"analyze"`
	Sweep    int64 `json:"sweep"`
	Tables   int64 `json:"tables"`
	Optimize int64 `json:"optimize"`
	Tail     int64 `json:"tail"`
	Batch    int64 `json:"batch"`
}

// StatsResponse is the body of GET /statsz.
type StatsResponse struct {
	Cache qcache.Stats `json:"cache"`
	// OptimizeCache counts the /v1/optimize response cache, which is
	// keyed by the canonical problem fingerprint and separate from the
	// analyze Result cache.
	OptimizeCache qcache.Stats `json:"optimize_cache"`
	// TailCache counts the /v1/tail response cache, keyed by the canonical
	// fingerprint plus the tail parameters.
	TailCache     qcache.Stats `json:"tail_cache"`
	Pool          PoolStats    `json:"pool"`
	Requests      RequestStats `json:"requests"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	// Latency summarizes the per-endpoint request-latency histograms
	// (count, mean, interpolated p50/p90/p99) for the four API endpoints.
	// The full distributions are on /metrics as
	// probconsd_http_request_seconds.
	Latency map[string]LatencySummary `json:"latency"`
	// Slowest lists the slowest requests currently held by the flight
	// recorder, slowest first — the pivot from a latency histogram spike
	// to a concrete request ID resolvable via GET /v1/traces.
	Slowest []SlowestView `json:"slowest"`
	// Batch counts POST /v1/batch item traffic.
	Batch BatchStats `json:"batch"`
}

// SlowestView is one /statsz "slowest" row.
type SlowestView struct {
	ID         string  `json:"id"`
	Endpoint   string  `json:"endpoint"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Keep       string  `json:"keep"`
}

// Stats snapshots all service counters. Every value is read from the
// same obs metrics /metrics exports; /statsz is a JSON view of the
// registry, not a second counter set.
func (s *Server) Stats() StatsResponse {
	latency := make(map[string]LatencySummary, len(apiEndpoints))
	for _, ep := range apiEndpoints {
		latency[ep] = summarize(s.m.endpoints[ep].latency)
	}
	return StatsResponse{
		Cache:         s.cache.Stats(),
		OptimizeCache: s.ocache.Stats(),
		TailCache:     s.tcache.Stats(),
		Pool: PoolStats{
			Workers:     s.workers,
			ActiveCells: s.m.activeCells.Load(),
			CellsDone:   s.m.sweepCells.Load(),
		},
		Requests: RequestStats{
			Analyze:  s.m.req["analyze"].Load(),
			Sweep:    s.m.req["sweep"].Load(),
			Tables:   s.m.req["tables"].Load(),
			Optimize: s.m.req["optimize"].Load(),
			Tail:     s.m.req["tail"].Load(),
			Batch:    s.m.req["batch"].Load(),
		},
		UptimeSeconds: time.Since(s.start).Seconds(),
		Latency:       latency,
		Slowest:       s.slowestViews(statszSlowestN),
		Batch:         s.batchStats(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request, tr *obs.Trace) {
	writeJSON(w, tr, http.StatusOK, s.Stats())
}
