package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Options configures a Server. Zero values take defaults.
type Options struct {
	// CacheCapacity is the total number of memoized Results (default 4096).
	CacheCapacity int
	// CacheShards is the cache shard count (default 16).
	CacheShards int
	// Workers bounds concurrent engine computations — analyze misses and
	// sweep cells alike (default NumCPU). Cache hits are never gated.
	Workers int
	// L2, when non-nil, is the fleet cache tier consulted on L1 analyze
	// misses: the key's owning peer is asked to answer (computing under
	// its own singleflight on a fleet-wide miss) before this server
	// computes. Best-effort — peer failures degrade to a local compute.
	L2 L2Tier
	// AnalyzeFunc computes one query; defaults to a core.EvaluatorPool
	// whose pooled workspaces give every sweep worker an allocation-free
	// engine (reducing to core.Analyze semantics for domain-free fleets).
	// Tests instrument it to count underlying engine calls.
	AnalyzeFunc func(core.Fleet, core.CountModel, core.DomainSet) (core.Result, error)
	// Logger, when non-nil, receives one structured access-log line per
	// HTTP request (request ID, endpoint, status, duration). nil disables
	// access logging; metrics are always on.
	Logger *slog.Logger
	// TraceBuffer is the flight recorder's capacity in trace records,
	// split between the always-retained ring (slow/error/sampled) and the
	// droppable recent ring (default 1024).
	TraceBuffer int
	// TraceSlow, when positive, fixes the slow-trace retention threshold
	// for every endpoint. Zero derives it per endpoint from the live
	// latency histogram (p99 with a floor).
	TraceSlow time.Duration
	// TraceSample deterministically retains every Kth request trace
	// regardless of outcome (default 64; negative disables sampling).
	TraceSample int
}

// solverCacheCapacity sizes the optimize and tail response caches. Each
// entry stands for far more compute than an analyze Result, so these
// caches stay small; no caller ever needed a different size.
const solverCacheCapacity = 1024

// Server is the probconsd request handler: stateless except for the
// caches and counters, so one instance serves arbitrary concurrency.
//
// Every cacheable endpoint is plan → cachedRun: a plan function does all
// validation, work-bounding and keying, and cachedRun answers the key
// from the endpoint's sharded LRU or runs the plan's compute under the
// cache's singleflight. The analyze cache is keyed by the canonical
// fleet+model+domains fingerprint, which absorbs permuted, renamed, or
// repriced spellings of the same query; with Options.L2 set, its misses
// consult the owning peer of the fleet tier before computing locally.
type Server struct {
	cache   *qcache.Cache[*analyzeEntry]
	ocache  *qcache.Cache[OptimizeResponse]
	tcache  *qcache.Cache[TailResponse]
	l2      L2Tier
	analyze func(core.Fleet, core.CountModel, core.DomainSet) (core.Result, error)
	workers int
	sem     chan struct{}
	start   time.Time
	logger  *slog.Logger

	// reg holds the server-scoped probconsd_* metric families; engine
	// families live on the process-global obs.Default() registry and the
	// two are merged at /metrics. Per-server registries keep multi-Server
	// processes (tests) free of duplicate-registration panics. All former
	// /statsz atomics live in m now — /statsz reads the same counters the
	// Prometheus endpoint exports.
	reg *obs.Registry
	m   serverMetrics

	// traces is the request flight recorder: the middleware deposits
	// every completed request's trace, tail-based retention keeps the
	// ones that matter, GET /v1/traces and /debug/requests read it back.
	traces    *obs.TraceStore
	traceSlow time.Duration // fixed slow threshold; 0 = derive per endpoint
}

// New builds a Server from opts.
func New(opts Options) *Server {
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = 4096
	}
	if opts.CacheShards <= 0 {
		opts.CacheShards = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.AnalyzeFunc == nil {
		// Each engine run borrows a pooled evaluator: concurrent sweep
		// workers never share a workspace, and steady-state engine runs
		// stop allocating DP tables.
		opts.AnalyzeFunc = core.NewEvaluatorPool().AnalyzeDomains
	}
	s := &Server{
		cache:     qcache.New[*analyzeEntry](opts.CacheCapacity, opts.CacheShards).WithSizer(sizeofAnalyzeEntry),
		ocache:    qcache.New[OptimizeResponse](solverCacheCapacity, opts.CacheShards).WithSizer(sizeofOptimizeResponse),
		tcache:    qcache.New[TailResponse](solverCacheCapacity, opts.CacheShards).WithSizer(sizeofTailResponse),
		l2:        opts.L2,
		analyze:   opts.AnalyzeFunc,
		workers:   opts.Workers,
		sem:       make(chan struct{}, opts.Workers),
		start:     time.Now(),
		logger:    opts.Logger,
		reg:       obs.NewRegistry(),
		traceSlow: opts.TraceSlow,
	}
	// The store must exist before newServerMetrics registers its
	// accounting; the slow-threshold hook reads s.m lazily at deposit
	// time, so the construction order is safe.
	s.traces = obs.NewTraceStore(obs.TraceStoreOptions{
		Capacity:      opts.TraceBuffer,
		SampleK:       opts.TraceSample,
		SlowThreshold: s.slowThreshold,
		Counters:      engineCounterRefs(),
	})
	s.m = newServerMetrics(s.reg, s)
	s.m.workers.Set(int64(opts.Workers))
	if s.l2 != nil {
		s.m.l2Peers.Set(int64(len(s.l2.Peers())))
	}
	return s
}

// Cache value sizers: cheap estimates of each response's compact-JSON
// footprint (fixed fields plus the variable-length strings), feeding the
// byte-occupancy stats that size L2 transfers and -cache-dump files
// without marshaling on the insert path.

func sizeofAnalyzeEntry(e *analyzeEntry) int {
	r := &e.resp
	return 176 + len(r.Model) + len(r.Fingerprint) +
		len(r.Percent.Safe) + len(r.Percent.Live) + len(r.Percent.SafeAndLive)
}

func sizeofOptimizeResponse(r OptimizeResponse) int {
	n := 320 + len(r.Model) + len(r.Target) + len(r.Fingerprint)
	for _, a := range r.Allocation {
		n += 72 + len(a.Name)
	}
	return n
}

func sizeofTailResponse(r TailResponse) int {
	return 224 + len(r.Model) + len(r.Event) + len(r.Method) + len(r.Fingerprint)
}

// traceCounterNames are the process-global engine counters every trace
// snapshots around its request: the delta says what the engine actually
// did for this request (builds vs cache hits vs deflations vs pool
// traffic) — the "why was it slow" column of the flight record.
var traceCounterNames = []string{
	"probcons_engine_joint_builds_total",
	"probcons_engine_block_cache_hits_total",
	"probcons_engine_loo_deflations_total",
	"probcons_engine_evaluator_pool_gets_total",
}

// engineCounterRefs resolves the trace counter set against the global
// registry. Counters registered by packages this binary does not link
// simply resolve to nil and are skipped.
func engineCounterRefs() []obs.CounterRef {
	refs := make([]obs.CounterRef, 0, len(traceCounterNames))
	for _, name := range traceCounterNames {
		if c := obs.Default().FindCounter(name, nil); c != nil {
			refs = append(refs, obs.CounterRef{Name: name, C: c})
		}
	}
	return refs
}

// clientError marks a failure the client caused, reported with its own
// 4xx status and never as a 500: 400 for every validation failure, 413
// for a body over the endpoint's limit.
type clientError struct {
	err    error
	status int
}

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

func badRequest(err error) error { return clientError{err, http.StatusBadRequest} }

// Cache verdicts: where a cached endpoint's answer came from. They label
// the request's trace and the analyze debug block.
const (
	verdictHit       = "l1_hit"    // the endpoint's response cache answered
	verdictPeer      = "l2_hit"    // the owning peer of the fleet tier answered
	verdictMiss      = "miss"      // this call ran the compute
	verdictCoalesced = "coalesced" // an identical in-flight computation was shared
)

// cachedRun is the one cached-endpoint path: it answers key from cache or
// runs compute under the cache's singleflight, classifies the outcome and
// records it on the trace (a nil tr records nothing). peer, when non-nil,
// is the fleet tier, consulted inside the singleflight before compute; its
// answer means no local compute at all. The trace doubles as the qcache
// event hook, so evictions and coalesced waits land on it too.
func cachedRun[R any](cache *qcache.Cache[R], key string, tr *obs.Trace, peer func() (R, bool), compute func() (R, error)) (R, string, error) {
	start := time.Now()
	verdict := verdictCoalesced
	resp, cached, err := cache.DoEvents(key, tr, func() (R, error) {
		if peer != nil {
			if r, ok := peer(); ok {
				verdict = verdictPeer
				return r, nil
			}
		}
		verdict = verdictMiss
		return compute()
	})
	if err != nil {
		return resp, "", err
	}
	if cached {
		verdict = verdictHit
	}
	if verdict != verdictMiss {
		// Hit, tier answer or coalesced wait: attribute the whole lookup
		// (including any wait on the winning flight) to the cache. On
		// computes the compute's own span covers the interesting interval.
		tr.Since("cache_lookup", start)
	}
	tr.SetCache(verdict)
	return resp, verdict, nil
}

// withWorker runs fn holding one engine worker-pool slot, so a burst of
// distinct expensive queries cannot pin every CPU. Only computes take
// slots (never a cache hit, never a peer wait) and a compute holding one
// waits for nothing else, so no hold-and-wait cycle exists.
func withWorker[R any](s *Server, fn func() (R, error)) (R, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	return fn()
}

// Handler returns the service's HTTP mux. Every route runs through the
// observability middleware, which also enforces the route's method;
// /metrics additionally exposes the merged server + engine registries in
// Prometheus text format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path, endpoint, method string, h http.HandlerFunc) {
		mux.HandleFunc(path, s.instrument(endpoint, method, h))
	}
	route("/v1/analyze", "analyze", http.MethodPost, handlePost(s.m.req["analyze"], maxBodyBytes, s.analyzeServed))
	route("/v1/sweep", "sweep", http.MethodPost, s.handleSweep)
	route("/v1/optimize", "optimize", http.MethodPost, handlePost(s.m.req["optimize"], maxBodyBytes, encoded(s.optimizeTraced)))
	route("/v1/tables", "tables", http.MethodGet, s.handleTables)
	route("/v1/tail", "tail", http.MethodPost, handlePost(s.m.req["tail"], maxBodyBytes, encoded(s.tailTraced)))
	route("/v1/batch", "batch", http.MethodPost, handlePost(s.m.req["batch"], maxBatchBodyBytes, encoded(s.batchTraced)))
	route("/v1/traces", "traces", http.MethodGet, s.handleTraces)
	route("/healthz", "healthz", http.MethodGet, s.handleHealthz)
	route("/statsz", "statsz", http.MethodGet, s.handleStatsz)
	route("/metrics", "metrics", "", s.MetricsHandler().ServeHTTP) // checks GET/HEAD itself
	return mux
}

// MetricsHandler serves GET /metrics: this server's probconsd_* families
// merged with the process-global engine registry (probcons_engine_*,
// probcons_optimize_*). Exposed separately so cmd/probconsd can also
// mount it on a private ops listener (-metrics-addr).
func (s *Server) MetricsHandler() http.Handler {
	return obs.Handler(s.reg, obs.Default())
}

// MetricFamilies lists every family /metrics exports for this server —
// server registry first, then the process-global engine registry. The
// docs coverage test pins docs/OBSERVABILITY.md against this list.
func (s *Server) MetricFamilies() []obs.FamilyInfo {
	return append(s.reg.Families(), obs.Default().Families()...)
}

// maxBodyBytes bounds request bodies; the largest legal request is an
// inputcheck.MaxClusterSize fleet, comfortably under 1 MiB.
const maxBodyBytes = 1 << 20

// encodeJSON renders v into buf the way every response body is rendered:
// two-space indent, one trailing newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeJSON encodes v into a pooled buffer, then sends status,
// Content-Length and the body in one Write. Encoding comes first so that a
// value encoding/json refuses (a NaN or ±Inf that got past the guards) is
// a 500 naming the failure on the body and the trace, not a 200 with no
// body.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	buf := getBody()
	defer putBody(buf)
	if err := encodeJSON(buf, v); err != nil {
		err = fmt.Errorf("encoding response: %w", err)
		TraceFrom(r.Context()).SetError(err.Error())
		status = http.StatusInternalServerError
		buf.Reset()
		_ = encodeJSON(buf, errorBody{Error: err.Error()}) // one string field: cannot fail
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends one complete JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client that left; nothing to report it to
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError renders err as a JSON error response and records its
// message on the request's trace, so error traces retained by the flight
// recorder carry the reason alongside the status.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	TraceFrom(r.Context()).SetError(err.Error())
	status := http.StatusInternalServerError
	var ce clientError
	if errors.As(err, &ce) {
		status = ce.status
	}
	writeJSON(w, r, status, errorBody{Error: err.Error()})
}

// handlePost is the body of every JSON-in, JSON-out POST endpoint:
// readRequest, the endpoint's traced call, and the response or its error
// rendered as JSON. A call that returns a body has it sent as is, in
// place of encoding the response.
func handlePost[Q, R any](count *obs.Counter, limit int64, call func(Q, *obs.Trace) (R, []byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Q
		if err := readRequest(count, limit, w, r, &req); err != nil {
			writeError(w, r, err)
			return
		}
		resp, body, err := call(req, TraceFrom(r.Context()))
		switch {
		case err != nil:
			writeError(w, r, err)
		case body != nil:
			writeBody(w, http.StatusOK, body)
		default:
			writeJSON(w, r, http.StatusOK, resp)
		}
	}
}

// encoded adapts a traced call that stores no bodies to handlePost: its
// responses are always encoded.
func encoded[Q, R any](call func(Q, *obs.Trace) (R, error)) func(Q, *obs.Trace) (R, []byte, error) {
	return func(req Q, tr *obs.Trace) (R, []byte, error) {
		resp, err := call(req, tr)
		return resp, nil, err
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}
