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

// TestEveryRouteTracesItsRefusal: each route records its own refusal on
// the trace it deposits — exactly one trace for its endpoint, carrying the
// status and the error the body names. A handler that stops recording into
// the trace the middleware hands it fails here.
func TestEveryRouteTracesItsRefusal(t *testing.T) {
	for _, tc := range []struct {
		endpoint, method, path, body string
		status                       int
	}{
		{"analyze", http.MethodPost, "/v1/analyze", `{"not json`, http.StatusBadRequest},
		{"optimize", http.MethodPost, "/v1/optimize", `{"not json`, http.StatusBadRequest},
		{"tail", http.MethodPost, "/v1/tail", `{"not json`, http.StatusBadRequest},
		{"batch", http.MethodPost, "/v1/batch", `{"not json`, http.StatusBadRequest},
		{"analyze", http.MethodPost, "/v1/analyze", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"analyze", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"sweep", http.MethodPost, "/v1/sweep", `{"protocol":"raft","ns":[],"ps":[0.01]}`, http.StatusBadRequest},
		{"traces", http.MethodGet, "/v1/traces?bogus=1", "", http.StatusBadRequest},
	} {
		srv := New(Options{})
		rec := serve(srv.Handler(), tc.method, tc.path, tc.body)
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != tc.status || body.Error == "" {
			t.Errorf("%s %s: status %d, body %q (%v); want a %d error body", tc.method, tc.path, rec.Code, rec.Body, err, tc.status)
			continue
		}
		traces := srv.traces.Query(obs.TraceFilter{Endpoint: tc.endpoint})
		if len(traces) != 1 || traces[0].Status != tc.status || traces[0].Error != body.Error {
			t.Errorf("%s %s: traces %+v, want one %s trace with status %d and error %q",
				tc.method, tc.path, traces, tc.endpoint, tc.status, body.Error)
		}
	}
}

// cutResponse is a response whose body writes fail after the first n, as
// when the client goes away mid-stream.
type cutResponse struct {
	*httptest.ResponseRecorder
	failAfter
}

func (c *cutResponse) Write(p []byte) (int, error) { return c.failAfter.Write(p) }

// TestSweepStopReachesTrace: a sweep whose stream stops after its 200 went
// out deposits a trace that says so, a stream_stopped event naming the
// cause, where it used to deposit one that looked like a complete stream.
// The status stays 200; a stream that runs to its end carries no event.
func TestSweepStopReachesTrace(t *testing.T) {
	srv := New(Options{Workers: 1})
	h := srv.Handler()
	const sweep = `{"protocol":"raft","ns":[3,4,5,6,7,8],"ps":[0.01]}`
	h.ServeHTTP(&cutResponse{httptest.NewRecorder(), failAfter{n: 1}},
		httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweep)))
	if rec := serve(h, http.MethodPost, "/v1/sweep", sweep); rec.Code != http.StatusOK {
		t.Fatalf("complete sweep: status %d", rec.Code)
	}

	var tr TracesResponse
	if err := json.Unmarshal(serve(h, http.MethodGet, "/v1/traces?endpoint=sweep", "").Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 2 {
		t.Fatalf("got %d sweep traces, want 2: %+v", len(tr.Traces), tr.Traces)
	}
	complete, cut := tr.Traces[0], tr.Traces[1] // newest first
	if len(complete.Events) != 0 {
		t.Errorf("complete sweep carries events %+v", complete.Events)
	}
	if cut.Status != http.StatusOK || cut.Error != "" {
		t.Errorf("cut sweep: status %d, error %q; want 200 and no error", cut.Status, cut.Error)
	}
	if len(cut.Events) != 1 || cut.Events[0].Name != "stream_stopped" || cut.Events[0].Detail != "consumer gone" {
		t.Errorf("cut sweep events %+v, want one stream_stopped naming the writer's error", cut.Events)
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
	postJSON(t, ts.URL+"/v1/analyze", body) // l1 hit through the body index

	tr := getTraces(t, ts.URL, "?endpoint=analyze")
	if len(tr.Traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(tr.Traces))
	}
	// Newest first: the index answer, the hit, then the miss.
	indexed, hit, miss := tr.Traces[0], tr.Traces[1], tr.Traces[2]
	if indexed.Cache != "l1_hit" || hit.Cache != "l1_hit" || miss.Cache != "miss" {
		t.Fatalf("cache verdicts = %q, %q, %q; want l1_hit, l1_hit, miss", indexed.Cache, hit.Cache, miss.Cache)
	}
	// The index answers without decoding, resolving or fingerprinting:
	// its one span is the lookup.
	if len(indexed.Spans) != 1 || indexed.Spans[0].Stage != "cache_lookup" {
		t.Fatalf("index answer's trace spans = %+v, want one cache_lookup", indexed.Spans)
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

// TestExemplarsResolveAfterTurnover pins that every exemplar names a
// trace the recorder still holds. A four-record recorder (two recent
// records, no sampling) serves one N = 256 miss and then 20 hits, so the
// miss and all but the newest hits are recycled before the exemplars are
// read. The reads call the /v1/traces handler itself, outside the
// middleware, so that no read deposits a trace of its own and pushes a
// named one out.
func TestExemplarsResolveAfterTurnover(t *testing.T) {
	srv := New(Options{TraceBuffer: 4, TraceSample: -1})
	h := srv.Handler()
	for i := 0; i < 21; i++ {
		if rec := serve(h, http.MethodPost, "/v1/analyze", string(coldBody)); rec.Code != http.StatusOK {
			t.Fatalf("analyze %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	read := func(query string) TracesResponse {
		rec := httptest.NewRecorder()
		srv.handleTraces(rec, httptest.NewRequest(http.MethodGet, "/v1/traces"+query, nil), nil)
		var tr TracesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
			t.Fatalf("GET /v1/traces%s = %d: %v", query, rec.Code, err)
		}
		return tr
	}
	named := 0
	for ep, views := range read("?exemplars=true").Exemplars {
		for _, v := range views {
			named++
			if got := read("?id=" + v.TraceID).Traces; len(got) != 1 {
				t.Errorf("%s exemplar le=%s names %s, which /v1/traces?id= does not find", ep, v.LE, v.TraceID)
			}
		}
	}
	if named == 0 {
		t.Fatal("no exemplars after 21 requests")
	}
}

// TestSlowThreshold drives one endpoint's latency histogram directly and
// pins the slow-trace threshold derived from it: 25 ms before 64
// samples, the histogram's p99 from then on with a 1 ms floor, derived
// afresh only every 128 deposits, and a fixed TraceSlow over all of it.
func TestSlowThreshold(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name  string
		fixed time.Duration // Options.TraceSlow
		first []float64     // samples, in seconds, before the first deposit
		then  []float64     // samples between the first deposit and the rest
		calls int           // deposits asking for the threshold; the last is checked
		want  time.Duration
	}{
		{"before 64 samples", 0, samples(63, 3e-3), nil, 1, 25 * ms},
		{"p99 at 64 samples", 0, samples(64, 3e-3), nil, 1, 4975 * time.Microsecond},
		{"floor", 0, samples(64, 1e-5), nil, 1, ms},
		{"cached for 127 more deposits", 0, samples(64, 3e-3), samples(64, 4e-2), 128, 4975 * time.Microsecond},
		{"derived again at the 128th", 0, samples(64, 3e-3), samples(64, 4e-2), 129, 49500 * time.Microsecond},
		{"fixed", 7 * ms, samples(64, 3e-3), nil, 1, 7 * ms},
		{"fixed before samples", 7 * ms, nil, nil, 1, 7 * ms},
		{"fixed past a refresh", 7 * ms, samples(64, 3e-3), samples(64, 4e-2), 129, 7 * ms},
	} {
		srv := New(Options{TraceSlow: tc.fixed})
		latency := srv.m.endpoints["analyze"].latency
		for _, v := range tc.first {
			latency.Observe(v)
		}
		got := srv.slowThreshold("analyze")
		for _, v := range tc.then {
			latency.Observe(v)
		}
		for i := 1; i < tc.calls; i++ {
			got = srv.slowThreshold("analyze")
		}
		if d := got - tc.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s: threshold %v, want %v", tc.name, got, tc.want)
		}
	}
}

// samples is n latency observations of v seconds.
func samples(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
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
// hit, and depositing it must add zero allocations to the one the
// untraced hit costs (TestAnalyzeHotPathAllocationGuard). The scratch is
// held here, as handlePost holds it, so the bound does not depend on a
// sync.Pool and holds under -race too.
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
	sc := new(scratch) // the request scratch handlePost would pass in
	if n := testing.AllocsPerRun(100, func() {
		tr := srv.traces.Acquire()
		tr.ID = "steady"
		tr.Endpoint = "analyze"
		tr.Status = 200
		sc.used = 0
		resp, _, err := srv.analyzeTraced(req, sc, tr)
		if err != nil || !resp.Cached {
			t.Fatalf("analyzeTraced = %+v, %v", resp, err)
		}
		srv.traces.Deposit(tr)
	}); n > 1 {
		t.Fatalf("traced L1 hot path allocates %.1f/op, want <= 1", n)
	}
}
