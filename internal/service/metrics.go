package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the serving layer's observability plane: the per-server
// obs registry that /statsz and /metrics both read, the HTTP middleware
// recording per-endpoint traffic and latency, and the request-ID
// plumbing of the structured access log. GET /metrics exposes this
// registry plus the process-global engine registry (obs.Default());
// docs/OBSERVABILITY.md inventories every family.

// endpoints instrumented by the middleware, in mux order.
var endpointNames = []string{"analyze", "sweep", "optimize", "tables", "tail", "batch", "traces", "healthz", "statsz", "metrics"}

// apiEndpoints are the query endpoints among them: the ones with an API
// request counter and a /statsz latency digest.
var apiEndpoints = []string{"analyze", "sweep", "optimize", "tables", "tail", "batch"}

// codeClasses label the status-class counters.
var codeClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is one endpoint's middleware instrumentation, plus the
// cached slow-trace threshold the flight recorder derives from the
// latency histogram (refreshed every slowRefreshEvery deposits).
type endpointMetrics struct {
	codes    map[string]*obs.Counter
	inFlight *obs.Gauge
	latency  *obs.Histogram

	slowNanos   atomic.Int64 // cached dynamic threshold; 0 = not derived yet
	slowRefresh atomic.Int64 // deposits until the next derivation
}

func (em *endpointMetrics) code(status int) *obs.Counter {
	class := status / 100
	if class < 2 || class > 5 {
		class = 5
	}
	return em.codes[codeClasses[class-2]]
}

// serverMetrics holds every metric handle of one Server. /statsz reads
// its counters back from these handles, the same values /metrics
// exports.
type serverMetrics struct {
	endpoints map[string]*endpointMetrics

	// req counts method-matched API requests, by endpoint (apiEndpoints).
	req map[string]*obs.Counter

	sweepCells  *obs.Counter
	activeCells *obs.Gauge
	workers     *obs.Gauge

	analyzeHit  *obs.Histogram
	analyzeMiss *obs.Histogram
	indexHits   *obs.Counter // analyze requests the body index answered

	// Tail dispatches and latency, by resolved method (MethodExact or
	// MethodImportance).
	tailDispatch map[string]*obs.Counter
	tailSeconds  map[string]*obs.Histogram

	// Batch endpoint: item traffic by kind, dedup wins, item rejections.
	batchItems      map[string]*obs.Counter
	batchDedup      *obs.Counter
	batchItemErrors *obs.Counter
}

// newServerMetrics registers the server's metric families on reg.
func newServerMetrics(reg *obs.Registry, s *Server) serverMetrics {
	m := serverMetrics{endpoints: map[string]*endpointMetrics{}}
	for _, ep := range endpointNames {
		em := &endpointMetrics{codes: map[string]*obs.Counter{}}
		for _, class := range codeClasses {
			em.codes[class] = reg.Counter("probconsd_http_requests_total",
				"HTTP requests served, by endpoint and status class.",
				obs.Labels{"endpoint": ep, "code": class})
		}
		em.inFlight = reg.Gauge("probconsd_http_in_flight_requests",
			"Requests currently being served, by endpoint.",
			obs.Labels{"endpoint": ep})
		em.latency = reg.Histogram("probconsd_http_request_seconds",
			"Wall-clock request latency, by endpoint.",
			obs.LatencyBuckets, obs.Labels{"endpoint": ep})
		m.endpoints[ep] = em
	}

	m.req = map[string]*obs.Counter{}
	for _, ep := range apiEndpoints {
		m.req[ep] = reg.Counter("probconsd_api_requests_total",
			"API requests accepted per endpoint (method-matched; the /statsz requests block).",
			obs.Labels{"endpoint": ep})
	}

	m.indexHits = reg.Counter("probconsd_memo_hits_total",
		"Analyze requests answered through the body index: a byte-identical repeat of a body served as a plain L1 hit, answered from its L1 entry without being decoded (each also counts as an L1 hit).", nil)
	m.sweepCells = reg.Counter("probconsd_sweep_cells_total",
		"Sweep grid cells computed.", nil)
	m.activeCells = reg.Gauge("probconsd_sweep_active_cells",
		"Sweep grid cells currently computing.", nil)
	m.workers = reg.Gauge("probconsd_pool_workers",
		"Configured engine worker-pool size.", nil)

	const analyzeHelp = "Analyze query latency through the analyze cache, from lookup to answer (keying excluded), labeled hit (L1 fingerprint hit) vs miss (engine compute, coalesced waits included)."
	m.analyzeHit = reg.Histogram("probconsd_analyze_seconds", analyzeHelp,
		obs.LatencyBuckets, obs.Labels{"cache": "hit"})
	m.analyzeMiss = reg.Histogram("probconsd_analyze_seconds", analyzeHelp,
		obs.LatencyBuckets, obs.Labels{"cache": "miss"})

	m.tailDispatch = map[string]*obs.Counter{}
	m.tailSeconds = map[string]*obs.Histogram{}
	for _, method := range []string{MethodExact, MethodImportance} {
		m.tailDispatch[method] = reg.Counter("probconsd_tail_dispatch_total",
			"Tail queries dispatched, by resolved method (exact engine vs importance sampler).",
			obs.Labels{"method": method})
		m.tailSeconds[method] = reg.Histogram("probconsd_tail_seconds",
			"Tail query latency through the tail cache, by resolved method.",
			obs.LatencyBuckets, obs.Labels{"method": method})
	}

	const batchItemHelp = "Batch items accepted, by query kind."
	m.batchItems = map[string]*obs.Counter{}
	for _, kind := range []string{"analyze", "sweep", "optimize", "tail"} {
		m.batchItems[kind] = reg.Counter("probconsd_batch_items_total", batchItemHelp, obs.Labels{"kind": kind})
	}
	m.batchDedup = reg.Counter("probconsd_batch_dedup_total",
		"Batch items answered by another item's computation (fingerprint dedup).", nil)
	m.batchItemErrors = reg.Counter("probconsd_batch_item_errors_total",
		"Batch items rejected by per-item validation (the batch itself still succeeds).", nil)

	registerCache(reg, "analyze", s.cache.Counters, s.cache.Len, s.cache.Bytes)
	registerCache(reg, "optimize", s.ocache.Counters, s.ocache.Len, s.ocache.Bytes)
	registerCache(reg, "tail", s.tcache.Counters, s.tcache.Len, s.tcache.Bytes)
	registerTraceStore(reg, s.traces)

	reg.GaugeFunc("probconsd_uptime_seconds", "Seconds since the server was constructed.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	return m
}

// registerTraceStore attaches the flight recorder's live accounting to
// the registry: deposit/retention counters under probconsd_traces_*
// (labeled by retention class where one applies) and the ring occupancy
// gauges. Same pattern as registerCache — the store owns the atomics,
// scrapes read them.
func registerTraceStore(reg *obs.Registry, ts *obs.TraceStore) {
	deposited, keptSlow, keptError, keptSampled, droppedRecent, droppedRetained := ts.Counters()
	reg.RegisterCounter("probconsd_traces_deposited_total",
		"Completed requests deposited into the flight recorder (every request deposits exactly once).", nil, deposited)
	const keptHelp = "Traces retained by the tail-sampling policy, by retention class (slow, error, or the deterministic 1-in-K sample)."
	reg.RegisterCounter("probconsd_traces_kept_total", keptHelp, obs.Labels{"class": obs.KeepSlow}, keptSlow)
	reg.RegisterCounter("probconsd_traces_kept_total", keptHelp, obs.Labels{"class": obs.KeepError}, keptError)
	reg.RegisterCounter("probconsd_traces_kept_total", keptHelp, obs.Labels{"class": obs.KeepSampled}, keptSampled)
	const droppedHelp = "Trace records overwritten under capacity pressure, by ring."
	reg.RegisterCounter("probconsd_traces_dropped_total", droppedHelp, obs.Labels{"ring": "recent"}, droppedRecent)
	reg.RegisterCounter("probconsd_traces_dropped_total", droppedHelp, obs.Labels{"ring": "retained"}, droppedRetained)
	const entriesHelp = "Trace records currently held, by ring."
	reg.GaugeFunc("probconsd_trace_buffer_entries", entriesHelp, obs.Labels{"ring": "retained"},
		func() float64 { return float64(ts.Stats().RetainedEntries) })
	reg.GaugeFunc("probconsd_trace_buffer_entries", entriesHelp, obs.Labels{"ring": "recent"},
		func() float64 { return float64(ts.Stats().RecentEntries) })
}

// registerCache attaches one qcache's live counters and size gauges under
// the shared probconsd_cache_* families, labeled by cache name.
func registerCache(reg *obs.Registry, name string,
	counters func() (hits, misses, coalesced, evictions *obs.Counter),
	length func() int, bytes func() int64) {
	hits, misses, coalesced, evictions := counters()
	labels := obs.Labels{"cache": name}
	reg.RegisterCounter("probconsd_cache_hits_total", "Result-cache lookups answered from cache.", labels, hits)
	reg.RegisterCounter("probconsd_cache_misses_total", "Result-cache lookups that ran the compute function.", labels, misses)
	reg.RegisterCounter("probconsd_cache_coalesced_total", "Result-cache lookups that piggybacked on an in-flight identical computation.", labels, coalesced)
	reg.RegisterCounter("probconsd_cache_evictions_total", "Result-cache entries dropped by the LRU policy.", labels, evictions)
	reg.GaugeFunc("probconsd_cache_entries", "Result-cache entries currently held.", labels,
		func() float64 { return float64(length()) })
	reg.GaugeFunc("probconsd_cache_bytes", "Approximate bytes of the entries currently held: key bytes plus each response's estimated compact-JSON size.", labels,
		func() float64 { return float64(bytes()) })
}

// reqIDPrefix is a per-process random prefix so request IDs from
// different probconsd instances behind one load balancer never collide in
// aggregated logs; reqIDSeq makes IDs unique and ordered within the
// process.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

// requestID renders the process prefix and seq the way "%s-%08x" would —
// hex, zero-padded to eight digits, wider once seq passes 2^32 — with the
// string as its only allocation.
func requestID(seq uint64) string {
	var buf [len("01234567-") + 16]byte
	b := append(buf[:0], reqIDPrefix...)
	b = append(b, '-')
	var digits [16]byte
	d := strconv.AppendUint(digits[:0], seq, 16)
	b = append(b, "00000000"[min(len(d), 8):]...)
	return string(append(b, d...))
}

// statusWriter captures the response status for the middleware. It
// forwards Flush so the sweep streamer's per-line flushing still reaches
// the client through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one endpoint handler with the observability
// middleware: flight-recorder trace acquisition (which carries the
// request ID), the route's method check (405 with an Allow header for any
// other method; "" leaves the check to the handler), in-flight gauge,
// per-endpoint latency histogram, status-class counters, trace deposit,
// and (when a logger is configured) one structured access-log line per
// request. Every request — debugged or not — produces a span tree and a
// retained-or-dropped trace decision; the trace is the request's one
// record, which the latency exemplars are read from. The handler gets
// the trace as its third argument and records into it; the request is
// passed on as it came, with no trace on its context.
func (s *Server) instrument(endpoint, method string, h func(http.ResponseWriter, *http.Request, *obs.Trace)) http.HandlerFunc {
	em := s.m.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.traces.Acquire()
		tr.Endpoint = endpoint
		tr.ID = requestID(reqIDSeq.Add(1))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		em.inFlight.Inc()
		if method == "" || r.Method == method {
			h(sw, r, tr)
		} else {
			sw.Header().Set("Allow", method)
			writeError(sw, tr, clientError{fmt.Errorf("%s requires %s", r.URL.Path, method), http.StatusMethodNotAllowed})
		}
		em.inFlight.Dec()
		d := time.Since(tr.Start)
		em.latency.Observe(d.Seconds())
		em.code(sw.status).Inc()
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", tr.ID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(d.Nanoseconds())/1e6),
				slog.String("remote", r.RemoteAddr),
			)
		}
		tr.Status = sw.status
		tr.Duration = d
		s.traces.Deposit(tr)
	}
}

// Slow-trace thresholds. With -trace-slow-ms unset the threshold is
// derived per endpoint from the live latency histogram: p99 with a
// floor, recomputed every slowRefreshEvery deposits once the histogram
// has slowMinSamples observations, defaultSlowThreshold before that. The
// cached value keeps the deposit path at two atomic ops amortized.
const (
	defaultSlowThreshold = 25 * time.Millisecond
	minSlowThreshold     = time.Millisecond
	slowRefreshEvery     = 128
	slowMinSamples       = 64
)

// slowThreshold is the TraceStore's SlowThreshold hook.
func (s *Server) slowThreshold(endpoint string) time.Duration {
	if s.traceSlow > 0 {
		return s.traceSlow
	}
	em := s.m.endpoints[endpoint]
	if em == nil {
		return defaultSlowThreshold
	}
	if em.slowRefresh.Add(-1) <= 0 {
		em.slowRefresh.Store(slowRefreshEvery)
		th := defaultSlowThreshold
		if snap := em.latency.Snapshot(); snap.Count >= slowMinSamples {
			th = time.Duration(snap.Quantile(0.99) * float64(time.Second))
			if th < minSlowThreshold {
				th = minSlowThreshold
			}
		}
		em.slowNanos.Store(int64(th))
		return th
	}
	if v := em.slowNanos.Load(); v > 0 {
		return time.Duration(v)
	}
	return defaultSlowThreshold
}

// LatencySummary is one endpoint's rolling latency digest in /statsz:
// the count/mean plus interpolated quantiles of the same histogram
// /metrics exposes in full.
type LatencySummary struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	return LatencySummary{
		Count:       s.Count,
		MeanSeconds: s.Mean(),
		P50Seconds:  s.Quantile(0.50),
		P90Seconds:  s.Quantile(0.90),
		P99Seconds:  s.Quantile(0.99),
	}
}
