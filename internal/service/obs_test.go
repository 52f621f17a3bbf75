package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("GET /metrics content type = %q, want %q", ct, obs.ContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleValue extracts the value of the exactly-matching sample line
// (metric name plus rendered label set), failing if absent.
func sampleValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || name != sample {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q has unparseable value %q: %v", sample, value, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in /metrics output", sample)
	return 0
}

// TestMetricsEndpoint drives real traffic through the mux and verifies
// the Prometheus exposition end to end: content type, server families
// with per-endpoint labels, engine families from the process-global
// registry, and a parseable grammar on every line.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":{"protocol":"raft","n":5},"p":0.01}`
	for i := 0; i < 2; i++ {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze status %d: %s", resp.StatusCode, b)
		}
	}
	// A 405 must land in the 4xx class counter.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze status %d, want 405", resp.StatusCode)
	}

	out := scrapeMetrics(t, ts)

	if got := sampleValue(t, out, `probconsd_http_requests_total{code="2xx",endpoint="analyze"}`); got != 2 {
		t.Errorf("analyze 2xx = %v, want 2", got)
	}
	if got := sampleValue(t, out, `probconsd_http_requests_total{code="4xx",endpoint="analyze"}`); got != 1 {
		t.Errorf("analyze 4xx = %v, want 1", got)
	}
	if got := sampleValue(t, out, `probconsd_api_requests_total{endpoint="analyze"}`); got != 2 {
		t.Errorf("api analyze = %v, want 2", got)
	}
	if got := sampleValue(t, out, `probconsd_cache_misses_total{cache="analyze"}`); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	if got := sampleValue(t, out, `probconsd_cache_hits_total{cache="analyze"}`); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	// Retired with the L0 memo, but still exposed for the frozen benchmark.
	if got := sampleValue(t, out, "probconsd_memo_hits_total"); got != 0 {
		t.Errorf("retired memo hits = %v, want a constant 0", got)
	}
	if got := sampleValue(t, out, "probconsd_pool_workers"); got != 4 {
		t.Errorf("pool workers = %v, want 4", got)
	}
	// The latency histogram must be complete: +Inf bucket equals _count.
	inf := sampleValue(t, out, `probconsd_http_request_seconds_bucket{endpoint="analyze",le="+Inf"}`)
	count := sampleValue(t, out, `probconsd_http_request_seconds_count{endpoint="analyze"}`)
	if inf != count || count != 3 {
		t.Errorf("analyze latency histogram: +Inf=%v count=%v, want both 3", inf, count)
	}
	// The cache-split analyze histogram saw one miss and one L1 hit.
	if got := sampleValue(t, out, `probconsd_analyze_seconds_count{cache="miss"}`); got != 1 {
		t.Errorf("analyze miss latency count = %v, want 1", got)
	}
	if got := sampleValue(t, out, `probconsd_analyze_seconds_count{cache="hit"}`); got != 1 {
		t.Errorf("analyze hit latency count = %v, want 1", got)
	}

	// Engine families ride along from the process-global registry. Their
	// values accumulate across the whole test binary, so assert presence,
	// not counts.
	for _, fam := range []string{
		"probcons_engine_joint_builds_total",
		"probcons_engine_stage_seconds_bucket",
		"probcons_engine_evaluator_pool_gets_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("engine family %s missing from /metrics", fam)
		}
	}

	// Every line must fit the exposition grammar.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestStatszGolden pins the exact /statsz JSON of a freshly constructed
// server (uptime zeroed): the wire shape is a documented API, and the
// legacy fields must keep their PR-2 positions byte for byte.
func TestStatszGolden(t *testing.T) {
	srv := New(Options{CacheCapacity: 256, CacheShards: 4, Workers: 4})
	st := srv.Stats()
	st.UptimeSeconds = 0
	got, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	zeroLatency := `{
      "count": 0,
      "mean_seconds": 0,
      "p50_seconds": 0,
      "p90_seconds": 0,
      "p99_seconds": 0
    }`
	zeroShards := `[
      {
        "entries": 0,
        "bytes": 0
      },
      {
        "entries": 0,
        "bytes": 0
      },
      {
        "entries": 0,
        "bytes": 0
      },
      {
        "entries": 0,
        "bytes": 0
      }
    ]`
	want := fmt.Sprintf(`{
  "cache": {
    "hits": 0,
    "misses": 0,
    "coalesced": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 256,
    "shards": 4,
    "bytes": 0,
    "per_shard": %[2]s
  },
  "optimize_cache": {
    "hits": 0,
    "misses": 0,
    "coalesced": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 1024,
    "shards": 4,
    "bytes": 0,
    "per_shard": %[2]s
  },
  "tail_cache": {
    "hits": 0,
    "misses": 0,
    "coalesced": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 1024,
    "shards": 4,
    "bytes": 0,
    "per_shard": %[2]s
  },
  "pool": {
    "workers": 4,
    "active_cells": 0,
    "cells_done": 0
  },
  "requests": {
    "analyze": 0,
    "sweep": 0,
    "tables": 0,
    "optimize": 0,
    "tail": 0,
    "batch": 0
  },
  "uptime_seconds": 0,
  "latency": {
    "analyze": %[1]s,
    "batch": %[1]s,
    "optimize": %[1]s,
    "sweep": %[1]s,
    "tables": %[1]s,
    "tail": %[1]s
  },
  "slowest": [],
  "batch": {
    "items": 0,
    "deduped": 0,
    "item_errors": 0
  }
}`, zeroLatency, zeroShards)
	if string(got) != want {
		t.Fatalf("statsz JSON drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatszLatencySummary checks the rolling latency digest fills in
// after traffic and agrees with the request counters.
func TestStatszLatencySummary(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"model":{"protocol":"raft","n":5},"p":0.01}`
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/analyze", body)
	}
	st := srv.Stats()
	lat := st.Latency["analyze"]
	if lat.Count != 3 {
		t.Fatalf("latency count = %d, want 3", lat.Count)
	}
	if lat.MeanSeconds <= 0 || lat.P99Seconds < lat.P50Seconds {
		t.Fatalf("implausible latency summary: %+v", lat)
	}
	if st.Latency["sweep"].Count != 0 {
		t.Fatalf("sweep latency count = %d, want 0", st.Latency["sweep"].Count)
	}
}

// TestAnalyzeDebugBlock checks the opt-in debug block: cache verdicts
// across the L1-miss and L1-hit paths, span stages, request IDs, and
// that undebugged requests carry no block at all.
func TestAnalyzeDebugBlock(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":{"protocol":"raft","n":5},"p":0.02,"debug":true}`

	resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var first AnalyzeResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	if first.Debug == nil {
		t.Fatal("debug:true response missing debug block")
	}
	if first.Debug.Cache != "miss" {
		t.Fatalf("first debug cache = %q, want miss", first.Debug.Cache)
	}
	if !regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8}$`).MatchString(first.Debug.RequestID) {
		t.Fatalf("request id %q does not look like prefix-seq hex", first.Debug.RequestID)
	}
	stages := map[string]bool{}
	for _, sp := range first.Debug.Spans {
		if sp.Seconds < 0 {
			t.Fatalf("negative span: %+v", sp)
		}
		stages[sp.Stage] = true
	}
	for _, want := range []string{"decode", "resolve", "fingerprint", "engine"} {
		if !stages[want] {
			t.Fatalf("miss-path spans %v missing stage %q", first.Debug.Spans, want)
		}
	}

	// Same query again: L1 answers, debug block is rebuilt fresh.
	_, b = postJSON(t, ts.URL+"/v1/analyze", body)
	var second AnalyzeResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if second.Debug == nil || second.Debug.Cache != "l1_hit" {
		t.Fatalf("second debug block = %+v, want l1_hit", second.Debug)
	}
	if second.Debug.RequestID == first.Debug.RequestID {
		t.Fatal("request IDs must be unique per request")
	}
	if second.SafeAndLive != first.SafeAndLive {
		t.Fatal("debug must not change the answer")
	}

	// Undebugged requests — even after a debugged one — have no block.
	_, b = postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":5},"p":0.02}`)
	var third AnalyzeResponse
	if err := json.Unmarshal(b, &third); err != nil {
		t.Fatal(err)
	}
	if third.Debug != nil {
		t.Fatalf("undebugged response carries debug block: %+v", third.Debug)
	}
	if !third.Cached {
		t.Fatal("third request should hit the cache")
	}
}

// TestAccessLog checks the structured access log: one line per request
// with the request ID, endpoint, status, and duration.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Options{Workers: 2, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		strings.NewReader(`{"model":{"protocol":"raft","n":3},"p":0.01}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %q", buf.String())
	}
	if line["endpoint"] != "analyze" || line["status"] != float64(200) || line["path"] != "/v1/analyze" {
		t.Fatalf("access log line missing fields: %v", line)
	}
	if id, _ := line["id"].(string); !regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8}$`).MatchString(id) {
		t.Fatalf("access log id = %q", line["id"])
	}
	if d, _ := line["duration_ms"].(float64); d <= 0 {
		t.Fatalf("access log duration_ms = %v", line["duration_ms"])
	}

	// No logger configured → no output, and requests still succeed.
	srv2, ts := newTestServer(t)
	_ = srv2
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.01}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
}

// TestMetricNameLint enforces the naming conventions across every family
// both registries export: snake_case, counters end in _total, histograms
// carry a unit suffix, and nothing collides between the server and
// engine registries.
func TestMetricNameLint(t *testing.T) {
	srv := New(Options{Workers: 2})
	nameRe := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	seen := map[string]string{}
	for _, reg := range []*obs.Registry{srv.reg, obs.Default()} {
		for _, fam := range reg.Families() {
			if !nameRe.MatchString(fam.Name) {
				t.Errorf("metric %q is not snake_case", fam.Name)
			}
			if prev, dup := seen[fam.Name]; dup {
				t.Errorf("metric %q registered in both %s and %s registries", fam.Name, prev, fam.Kind)
			}
			seen[fam.Name] = fam.Kind
			switch fam.Kind {
			case "counter":
				if !strings.HasSuffix(fam.Name, "_total") {
					t.Errorf("counter %q must end in _total", fam.Name)
				}
			case "histogram":
				if !strings.HasSuffix(fam.Name, "_seconds") {
					t.Errorf("histogram %q must carry its unit suffix (_seconds)", fam.Name)
				}
			case "gauge":
				if strings.HasSuffix(fam.Name, "_total") {
					t.Errorf("gauge %q must not use the counter suffix _total", fam.Name)
				}
			}
		}
	}
	// The families the docs and CI smoke test depend on must exist.
	for _, name := range []string{
		"probconsd_http_requests_total",
		"probconsd_http_request_seconds",
		"probconsd_cache_hits_total",
		"probconsd_analyze_seconds",
		"probcons_engine_joint_builds_total",
	} {
		if _, ok := seen[name]; !ok {
			t.Errorf("core family %q is not registered", name)
		}
	}
}
