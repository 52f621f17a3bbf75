package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTracingServer builds a test server with explicit flight-recorder
// knobs.
func newTracingServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = 256
	}
	if opts.CacheShards == 0 {
		opts.CacheShards = 4
	}
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getTraces(t *testing.T, base, query string) TracesResponse {
	t.Helper()
	var tr TracesResponse
	resp := getJSON(t, base+"/v1/traces"+query, &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces%s = %d", query, resp.StatusCode)
	}
	return tr
}

// TestEveryRequestProducesTrace pins the tentpole contract: every
// completed request — success or failure, debug or not — lands in the
// flight recorder with a retention decision.
func TestEveryRequestProducesTrace(t *testing.T) {
	_, ts := newTracingServer(t, Options{})
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	postJSON(t, ts.URL+"/v1/analyze", `{"not json`)
	getJSON(t, ts.URL+"/v1/tables", new(map[string]any))

	tr := getTraces(t, ts.URL, "")
	// analyze ok, analyze 400, tables, plus this /v1/traces call's own
	// trace is deposited after its response is written — so expect 3 here.
	if len(tr.Traces) != 3 {
		t.Fatalf("got %d traces, want 3: %+v", len(tr.Traces), tr.Traces)
	}
	if tr.Stats.Deposited != 3 {
		t.Fatalf("deposited = %d, want 3", tr.Stats.Deposited)
	}
	for _, rec := range tr.Traces {
		if rec.ID == "" || rec.Keep == "" || rec.Endpoint == "" {
			t.Fatalf("trace missing identity or retention class: %+v", rec)
		}
	}
	// The traces endpoint instruments itself: a second query sees it.
	tr2 := getTraces(t, ts.URL, "?endpoint=traces")
	if len(tr2.Traces) == 0 {
		t.Fatal("/v1/traces requests must themselves be traced")
	}
}

// TestErrorTracesAlwaysRetrievable pins tail-based retention for errors:
// a failed request survives arbitrary fast-success pressure.
func TestErrorTracesAlwaysRetrievable(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceBuffer: 8, TraceSample: -1})
	resp, _ := postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range p must 400, got %d", resp.StatusCode)
	}
	for i := 0; i < 200; i++ {
		postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	}
	tr := getTraces(t, ts.URL, "?min_status=400")
	if len(tr.Traces) != 1 {
		t.Fatalf("got %d error traces, want 1", len(tr.Traces))
	}
	rec := tr.Traces[0]
	if rec.Keep != obs.KeepError || rec.Status != 400 || rec.Endpoint != "analyze" {
		t.Fatalf("error trace mismatch: %+v", rec)
	}
	if rec.Error == "" {
		t.Fatal("error trace must carry the error message writeError recorded")
	}
	// And it is addressable by its request ID.
	byID := getTraces(t, ts.URL, "?id="+rec.ID)
	if len(byID.Traces) != 1 || byID.Traces[0].ID != rec.ID {
		t.Fatalf("lookup by id %q failed: %+v", rec.ID, byID.Traces)
	}
}

// TestSlowTracesRetained pins the -trace-slow-ms fixed threshold: with a
// microscopic threshold every request classifies as slow.
func TestSlowTracesRetained(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceSlow: time.Nanosecond, TraceSample: -1})
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	tr := getTraces(t, ts.URL, "?endpoint=analyze&keep=slow")
	if len(tr.Traces) != 1 {
		t.Fatalf("got %d slow traces, want 1: stats %+v", len(tr.Traces), tr.Stats)
	}
	if tr.Traces[0].DurationMS <= 0 {
		t.Fatalf("slow trace has no duration: %+v", tr.Traces[0])
	}
}

// TestSampledTracesDeterministic pins the 1-in-K sample at the service
// level: K=1 keeps everything as sampled when nothing is slow or failed.
func TestSampledTracesDeterministic(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceSample: 1})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	}
	tr := getTraces(t, ts.URL, "?endpoint=analyze")
	if len(tr.Traces) != 3 {
		t.Fatalf("got %d analyze traces, want 3", len(tr.Traces))
	}
	for _, rec := range tr.Traces {
		if rec.Keep != obs.KeepSampled && rec.Keep != obs.KeepSlow {
			t.Fatalf("with K=1 every trace is retained, got %+v", rec)
		}
	}
}

// TestTraceSpansAndCacheVerdicts checks the span tree and cache verdict
// land on the trace for each endpoint family.
func TestTraceSpansAndCacheVerdicts(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceSample: 1})
	body := `{"model":{"protocol":"raft","n":7},"p":0.02}`
	postJSON(t, ts.URL+"/v1/analyze", body) // miss
	postJSON(t, ts.URL+"/v1/analyze", body) // l1 hit

	tr := getTraces(t, ts.URL, "?endpoint=analyze")
	if len(tr.Traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(tr.Traces))
	}
	// Newest first: the hit, then the miss.
	hit, miss := tr.Traces[0], tr.Traces[1]
	if hit.Cache != "l1_hit" || miss.Cache != "miss" {
		t.Fatalf("cache verdicts = %q, %q; want l1_hit, miss", hit.Cache, miss.Cache)
	}
	spanNames := func(rec TraceRecordView) map[string]bool {
		out := map[string]bool{}
		for _, sp := range rec.Spans {
			out[sp.Stage] = true
		}
		return out
	}
	if names := spanNames(miss); !names["decode"] || !names["fingerprint"] || !names["engine"] {
		t.Fatalf("miss trace spans = %+v, want decode+fingerprint+engine", miss.Spans)
	}
	if names := spanNames(hit); !names["decode"] || !names["fingerprint"] || !names["cache_lookup"] || names["engine"] {
		t.Fatalf("hit trace spans = %+v, want decode+fingerprint+cache_lookup and no engine", hit.Spans)
	}
	if len(miss.Counters) == 0 {
		t.Fatalf("engine-computing trace must carry counter deltas: %+v", miss)
	}
	if miss.Counters["probcons_engine_joint_builds_total"] == 0 {
		t.Fatalf("miss must record joint builds, got %v", miss.Counters)
	}
}

// TestTracesFilterStrictness pins the strict query decoding: unknown,
// repeated, and out-of-range parameters are client errors.
func TestTracesFilterStrictness(t *testing.T) {
	_, ts := newTracingServer(t, Options{})
	for _, q := range []string{
		"?bogus=1",
		"?endpoint=analyze&endpoint=sweep",
		"?status=9000",
		"?min_status=abc",
		"?min_ms=-1",
		"?keep=forever",
		"?limit=0",
		"?limit=100000",
		"?exemplars=maybe",
	} {
		resp, err := http.Get(ts.URL + "/v1/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces%s = %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/traces = %d, want 405", resp.StatusCode)
	}
}

// TestExemplarsLinkMetricsToTraces pins the metrics→traces pivot: a
// latency bucket exemplar names a request ID /v1/traces can resolve.
func TestExemplarsLinkMetricsToTraces(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceSample: 1})
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	tr := getTraces(t, ts.URL, "?exemplars=true")
	views, ok := tr.Exemplars["analyze"]
	if !ok || len(views) == 0 {
		t.Fatalf("no analyze exemplars: %+v", tr.Exemplars)
	}
	ex := views[0]
	if ex.TraceID == "" || ex.Seconds <= 0 || ex.LE == "" {
		t.Fatalf("malformed exemplar: %+v", ex)
	}
	byID := getTraces(t, ts.URL, "?id="+ex.TraceID)
	if len(byID.Traces) != 1 || byID.Traces[0].Endpoint != "analyze" {
		t.Fatalf("exemplar trace ID %q did not resolve: %+v", ex.TraceID, byID.Traces)
	}
}

// TestDebugBlockRequestIDResolvesInTraces round-trips the debug block's
// request ID into the flight recorder.
func TestDebugBlockRequestIDResolvesInTraces(t *testing.T) {
	_, ts := newTracingServer(t, Options{TraceSample: 1})
	_, body := postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01,"debug":true}`)
	var resp struct {
		Debug struct {
			RequestID string `json:"request_id"`
		} `json:"debug"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Debug.RequestID == "" {
		t.Fatal("debug block missing request_id")
	}
	tr := getTraces(t, ts.URL, "?id="+resp.Debug.RequestID)
	if len(tr.Traces) != 1 {
		t.Fatalf("request_id %q not in flight recorder", resp.Debug.RequestID)
	}
}

// TestStatszSlowestBlock checks /statsz surfaces the recorder's slowest
// requests after traffic.
func TestStatszSlowestBlock(t *testing.T) {
	srv, ts := newTracingServer(t, Options{TraceSample: 1})
	for i := 5; i <= 7; i += 2 {
		postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"model":{"protocol":"raft","n":%d},"p":0.01}`, i))
	}
	st := srv.Stats()
	if len(st.Slowest) == 0 {
		t.Fatal("statsz slowest block empty after traffic")
	}
	for i := 1; i < len(st.Slowest); i++ {
		if st.Slowest[i].DurationMS > st.Slowest[i-1].DurationMS {
			t.Fatalf("slowest not sorted: %+v", st.Slowest)
		}
	}
	if st.Slowest[0].ID == "" || st.Slowest[0].Endpoint == "" {
		t.Fatalf("slowest entry missing identity: %+v", st.Slowest[0])
	}
}

// TestDebugRequestsDump checks the human-readable dump: header line,
// one line per trace, and filter passthrough.
func TestDebugRequestsDump(t *testing.T) {
	srv, ts := newTracingServer(t, Options{TraceSample: 1})
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)

	dump := httptest.NewServer(srv.DebugRequestsHandler())
	t.Cleanup(dump.Close)
	resp, err := http.Get(dump.URL + "?endpoint=analyze")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(text, "flight recorder:") {
		t.Fatalf("dump = %d:\n%s", resp.StatusCode, text)
	}
	if !strings.Contains(text, "analyze") || !strings.Contains(text, "keep=") {
		t.Fatalf("dump missing trace line:\n%s", text)
	}
	bad, err := http.Get(dump.URL + "?bogus=1")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter = %d, want 400", bad.StatusCode)
	}
}

// TestTraceMetricsFamilies checks the recorder's own accounting metrics
// render on /metrics.
func TestTraceMetricsFamilies(t *testing.T) {
	srv, ts := newTracingServer(t, Options{TraceSample: 1})
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.01}`)
	ms := httptest.NewServer(srv.MetricsHandler())
	t.Cleanup(ms.Close)
	resp, err := http.Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		"probconsd_traces_deposited_total 1",
		`probconsd_traces_kept_total{class="slow"}`,
		`probconsd_traces_dropped_total{ring="recent"}`,
		`probconsd_trace_buffer_entries{ring="retained"}`,
		"probcons_go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTracedAnalyzeHotPathZeroAlloc extends the allocation guard to the
// recorder-enabled path: acquiring a record, threading it through the L1
// hit, and depositing it must add zero allocations to the three the
// untraced hit costs (TestAnalyzeHotPathAllocationGuard).
func TestTracedAnalyzeHotPathZeroAlloc(t *testing.T) {
	srv := New(Options{TraceBuffer: 8, TraceSample: -1})
	nodes := make([]NodeSpec, 9)
	for i := range nodes {
		nodes[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), PCrash: 0.01 + 0.001*float64(i)}
	}
	req := AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: 9}, Fleet: nodes}
	if _, err := srv.Analyze(req); err != nil {
		t.Fatal(err)
	}
	// Prime the free list so records recycle rather than allocate.
	for i := 0; i < 16; i++ {
		tr := srv.traces.Acquire()
		tr.ID = "prime"
		tr.Endpoint = "analyze"
		tr.Status = 200
		srv.traces.Deposit(tr)
	}
	if n := testing.AllocsPerRun(100, func() {
		tr := srv.traces.Acquire()
		tr.ID = "steady"
		tr.Endpoint = "analyze"
		tr.Status = 200
		resp, _, err := srv.analyzeTraced(req, tr)
		if err != nil || !resp.Cached {
			t.Fatalf("analyzeTraced = %+v, %v", resp, err)
		}
		srv.traces.Deposit(tr)
	}); n > 3 {
		t.Fatalf("traced L1 hot path allocates %.1f/op, want <= 3", n)
	}
}
