package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// isClientError reports whether err is a request-validation failure (the
// errors the handlers answer with a 4xx).
func isClientError(err error) bool {
	var ce clientError
	return errors.As(err, &ce)
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{CacheCapacity: 256, CacheShards: 4, Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAnalyzeGoldenTable2 checks /v1/analyze against the exact engine for
// every Table 2 cell to 1e-12.
func TestAnalyzeGoldenTable2(t *testing.T) {
	_, ts := newTestServer(t)
	for _, n := range core.Table2Sizes() {
		for _, p := range core.Table2PUs() {
			body := fmt.Sprintf(`{"model":{"protocol":"raft","n":%d},"p":%g}`, n, p)
			resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("n=%d p=%g: status %d: %s", n, p, resp.StatusCode, b)
			}
			var got AnalyzeResponse
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			want := core.MustAnalyze(core.UniformCrashFleet(n, p), core.NewRaft(n))
			if math.Abs(got.SafeAndLive-want.SafeAndLive) > 1e-12 ||
				math.Abs(got.Safe-want.Safe) > 1e-12 ||
				math.Abs(got.Live-want.Live) > 1e-12 {
				t.Fatalf("n=%d p=%g: service %+v != core %+v", n, p, got, want)
			}
			if got.Percent.SafeAndLive != dist.FormatPercent(want.SafeAndLive, 2) {
				t.Fatalf("percent rendering mismatch: %s", got.Percent.SafeAndLive)
			}
		}
	}
}

// TestAnalyzeGoldenTable1 checks /v1/analyze against every Table 1 row.
func TestAnalyzeGoldenTable1(t *testing.T) {
	_, ts := newTestServer(t)
	for _, m := range core.Table1Configs() {
		body := fmt.Sprintf(
			`{"model":{"protocol":"pbft","n":%d,"q_eq":%d,"q_per":%d,"q_vc":%d,"q_vct":%d},"p":0.01}`,
			m.NNodes, m.QEq, m.QPer, m.QVC, m.QVCT)
		resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("N=%d: status %d: %s", m.NNodes, resp.StatusCode, b)
		}
		var got AnalyzeResponse
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		want := core.MustAnalyze(core.UniformByzFleet(m.NNodes, 0.01), m)
		if math.Abs(got.SafeAndLive-want.SafeAndLive) > 1e-12 {
			t.Fatalf("N=%d: service %v != core %v", m.NNodes, got.SafeAndLive, want.SafeAndLive)
		}
	}
}

// TestAnalyzeCrashOnlyRaftExactlySafe pins the wire form of the crash-only
// Raft safety answer: exactly 1, rendered "100%".
func TestAnalyzeCrashOnlyRaftExactlySafe(t *testing.T) {
	_, ts := newTestServer(t)
	for _, n := range []int{3, 5, 256} {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", fmt.Sprintf(`{"model":{"protocol":"raft","n":%d},"p":0.01}`, n))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, b)
		}
		var got AnalyzeResponse
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.Safe != 1 || got.Percent.Safe != "100%" {
			t.Errorf("n=%d: safe %.17g (%s), want exactly 1 (100%%)", n, got.Safe, got.Percent.Safe)
		}
	}
}

func TestAnalyzeHeterogeneousFleetAndCacheFlag(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":{"protocol":"raft","n":3},
	          "fleet":[{"p_crash":0.01},{"p_crash":0.02},{"p_crash":0.04,"p_byz":0.001}]}`
	resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var first AnalyzeResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query must be a miss")
	}
	if len(first.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q not a sha256 hex", first.Fingerprint)
	}
	// Same query, nodes permuted: canonical fingerprint ⇒ cache hit.
	permuted := `{"model":{"protocol":"raft","n":3},
	          "fleet":[{"p_crash":0.04,"p_byz":0.001},{"p_crash":0.01},{"p_crash":0.02}]}`
	_, b = postJSON(t, ts.URL+"/v1/analyze", permuted)
	var second AnalyzeResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("permuted identical query must hit the cache")
	}
	if second.Fingerprint != first.Fingerprint || second.SafeAndLive != first.SafeAndLive {
		t.Fatal("permuted query must share fingerprint and result")
	}
}

// TestNegativeZeroSharesCacheEntry: JSON "-0" decodes to -0.0 and passes
// validation; it is the same fleet as "0" and must land on the same L1
// entry — on /v1/analyze, through the shared fingerprint /v1/tail, and
// under the optimizer's positional key /v1/optimize.
func TestNegativeZeroSharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t)
	fleet := func(zero string) string {
		return `"model":{"protocol":"raft","n":3},"fleet":[{"p_crash":0.01,"p_byz":` + zero +
			`,"domain":"z"},{"p_crash":0.02,"domain":"z"},{"p_crash":` + zero + `,"p_byz":0.001}],` +
			`"domains":[{"name":"z","shock":` + zero + `,"crash_mult":3,"byz_mult":` + zero + `}]`
	}
	for _, tc := range []struct{ path, extra string }{
		{"/v1/analyze", ""},
		{"/v1/tail", `,"event":"not_live"`},
		{"/v1/optimize", `,"budget":1,"curve":{"floor_frac":0.1,"scale":0.25}`},
	} {
		var first, second struct {
			Fingerprint string `json:"fingerprint"`
			Cached      bool   `json:"cached"`
		}
		for i, dst := range []any{&first, &second} {
			resp, b := postJSON(t, ts.URL+tc.path, "{"+fleet([]string{"-0", "0"}[i])+tc.extra+"}")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, b)
			}
			if err := json.Unmarshal(b, dst); err != nil {
				t.Fatal(err)
			}
		}
		if first.Cached || !second.Cached || first.Fingerprint != second.Fingerprint {
			t.Errorf("%s: -0 then 0: cached %v then %v, fingerprints %.8s… / %.8s…; want one entry",
				tc.path, first.Cached, second.Cached, first.Fingerprint, second.Fingerprint)
		}
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []string{
		`{"model":{"protocol":"raft","n":0},"p":0.01}`,                                                          // n < 1
		`{"model":{"protocol":"raft","n":3},"p":1.5}`,                                                           // p > 1
		`{"model":{"protocol":"raft","n":3},"p":-0.1}`,                                                          // p < 0
		`{"model":{"protocol":"paxos","n":3},"p":0.01}`,                                                         // unknown protocol
		`{"model":{"n":3},"p":0.01}`,                                                                            // missing protocol
		`{"model":{"protocol":"raft","n":3}}`,                                                                   // no fleet, no p
		`{"model":{"protocol":"raft","n":5},"fleet":[{"p_crash":0.1}]}`,                                         // size mismatch
		`{"model":{"protocol":"raft","n":1,"q_eq":1},"p":0.1}`,                                                  // pbft param on raft
		`{"model":{"protocol":"raft","n":3,"q_per":9},"p":0.1}`,                                                 // quorum > n
		`{"model":{"protocol":"raft","n":3},"p":0.1,"fleet":[{"p_crash":0.1},{"p_crash":0.1},{"p_crash":0.1}]}`, // both
		`{"model":{"protocol":"raft","n":2},"fleet":[{"p_crash":0.9,"p_byz":0.9},{"p_crash":0.1}]}`,             // crash+byz > 1
		`{"model":{"protocol":"raft","n":9999999},"p":0.1}`,                                                     // absurd n
		`not json`,
		`{"model":{"protocol":"raft","n":3},"p":0.01,"bogus":1}`, // unknown field
	}
	for _, body := range bad {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
			t.Errorf("body %s: error payload %q unparseable", body, b)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/tables", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tables = %d, want 405", resp.StatusCode)
	}
}

// TestTablesGolden checks /v1/tables against core.Table1/Table2 to 1e-12
// and that the second request is served entirely from cache.
func TestTablesGolden(t *testing.T) {
	srv, ts := newTestServer(t)
	var tables TablesResponse
	if resp := getJSON(t, ts.URL+"/v1/tables", &tables); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	t1 := core.Table1()
	if len(tables.Table1) != len(t1) {
		t.Fatalf("table1 has %d rows, want %d", len(tables.Table1), len(t1))
	}
	for i, row := range tables.Table1 {
		if math.Abs(row.SafeAndLive-t1[i].SafeAndLive) > 1e-12 ||
			math.Abs(row.Safe-t1[i].Safe) > 1e-12 ||
			math.Abs(row.Live-t1[i].Live) > 1e-12 {
			t.Fatalf("table1 row %d: %+v != core %+v", i, row, t1[i])
		}
	}
	t2 := core.Table2()
	want2 := len(t2) * len(core.Table2PUs())
	if len(tables.Table2) != want2 {
		t.Fatalf("table2 has %d rows, want %d", len(tables.Table2), want2)
	}
	k := 0
	for _, row := range t2 {
		for j := range row.PU {
			if math.Abs(tables.Table2[k].SafeAndLive-row.SafeAndLive[j]) > 1e-12 {
				t.Fatalf("table2 cell %d: %v != core %v", k, tables.Table2[k].SafeAndLive, row.SafeAndLive[j])
			}
			k++
		}
	}

	missesAfterFirst := srv.Stats().Cache.Misses
	var again TablesResponse
	getJSON(t, ts.URL+"/v1/tables", &again)
	if got := srv.Stats().Cache.Misses; got != missesAfterFirst {
		t.Fatalf("second /v1/tables recomputed: misses %d -> %d", missesAfterFirst, got)
	}
}

func TestSweepStreamsGridInOrder(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"protocol":"raft","ns":[3,5,7,9],"ps":[0.01,0.02,0.04,0.08]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []SweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 16 {
		t.Fatalf("got %d lines, want 16", len(lines))
	}
	// Grid order and values match Table 2 exactly.
	k := 0
	for _, n := range []int{3, 5, 7, 9} {
		for _, p := range []float64{0.01, 0.02, 0.04, 0.08} {
			l := lines[k]
			if l.N != n || l.P != p {
				t.Fatalf("line %d is (n=%d,p=%g), want (n=%d,p=%g)", k, l.N, l.P, n, p)
			}
			if l.Error != "" {
				t.Fatalf("line %d errored: %s", k, l.Error)
			}
			want := core.MustAnalyze(core.UniformCrashFleet(n, p), core.NewRaft(n))
			if math.Abs(l.SafeAndLive-want.SafeAndLive) > 1e-12 {
				t.Fatalf("line %d: %v != core %v", k, l.SafeAndLive, want.SafeAndLive)
			}
			k++
		}
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"protocol":"raft","ns":[],"ps":[0.01]}`,
		`{"protocol":"raft","ns":[3],"ps":[]}`,
		`{"protocol":"raft","ns":[0],"ps":[0.01]}`,
		`{"protocol":"raft","ns":[3],"ps":[2]}`,
		`{"protocol":"viewstamped","ns":[3],"ps":[0.01]}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t)
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.01}`)
	postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.01}`)

	var stats StatsResponse
	if resp := getJSON(t, ts.URL+"/statsz", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz = %d", resp.StatusCode)
	}
	if stats.Requests.Analyze != 2 {
		t.Fatalf("analyze count = %d, want 2", stats.Requests.Analyze)
	}
	// The identical repeat is an L1 hit.
	if stats.Cache.Misses != 1 || stats.Cache.Hits != 1 {
		t.Fatalf("stats = cache %+v, want 1 miss / 1 hit", stats.Cache)
	}
	if stats.Pool.Workers != 4 {
		t.Fatalf("workers = %d, want 4", stats.Pool.Workers)
	}
}

// TestConcurrentIdenticalAnalyzeCoalesces is the acceptance-criteria race
// test: K=64 concurrent identical /v1/analyze requests must trigger exactly
// one underlying core.Analyze call. Run under -race in CI.
func TestConcurrentIdenticalAnalyzeCoalesces(t *testing.T) {
	const K = 64
	var engineCalls atomic.Int64
	gate := make(chan struct{})
	srv := New(Options{
		CacheCapacity: 64,
		Workers:       4,
		AnalyzeFunc: func(q *core.Query) (core.Result, error) {
			engineCalls.Add(1)
			<-gate // hold the flight open until every request has arrived
			return core.AnalyzeQuery(q), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"model":{"protocol":"raft","n":25},"p":0.03}`
	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var ar AnalyzeResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	// Release the single flight once all K requests are either waiting on
	// it or still dialing; coalesced+1 <= K requests have reached Do so
	// far, and any that arrive after the flight completes hit the cache —
	// either way the engine runs once.
	for srv.Stats().Cache.Coalesced < K/2 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := engineCalls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the engine %d times, want exactly 1", K, got)
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss", st.Cache)
	}
	// Every other request was answered without the engine: coalesced onto
	// the flight, or — if it arrived after completion — from L1.
	if st.Cache.Coalesced+st.Cache.Hits != K-1 {
		t.Fatalf("stats = cache %+v, want coalesced+hits = %d", st.Cache, K-1)
	}
}

func TestSweepDirectWriter(t *testing.T) {
	srv := New(Options{Workers: 2})
	var buf bytes.Buffer
	req := SweepRequest{Protocol: "pbft", Ns: []int{4, 7}, Ps: []float64{0.01}}
	if err := srv.Sweep(context.Background(), req, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var l SweepLine
	if err := json.Unmarshal([]byte(lines[0]), &l); err != nil {
		t.Fatal(err)
	}
	if l.N != 4 || l.Error != "" {
		t.Fatalf("line = %+v", l)
	}
}

// TestRequestMutationIsolation: nothing cached may alias the caller's
// request, so a caller mutating its fleet slice after Analyze gets a fresh
// (correct) answer, not a stale cached one — and the unmutated repeat is
// an L1 hit.
func TestRequestMutationIsolation(t *testing.T) {
	srv := New(Options{CacheCapacity: 16})
	nodes := []NodeSpec{{PCrash: 0.01}, {PCrash: 0.01}, {PCrash: 0.01}}
	req := AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: 3}, Fleet: nodes, Debug: true}
	first, err := srv.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].PCrash = 0.5 // mutate the caller's slice in place
	second, err := srv.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("mutated request must not be served from the cache")
	}
	if second.SafeAndLive >= first.SafeAndLive {
		t.Fatalf("degraded fleet should be less reliable: %v vs %v", second.SafeAndLive, first.SafeAndLive)
	}
	// And the cache really does serve identical repeats.
	third, err := srv.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Debug.Cache != "l1_hit" || third.SafeAndLive != second.SafeAndLive {
		t.Fatalf("identical repeat should be an l1_hit: %+v (debug %+v)", third, third.Debug)
	}
	if st := srv.Stats().Cache; st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestNinesCappedInJSON: probabilities indistinguishable from 1 at float64
// resolution must render as MaxNines, not +Inf (which JSON cannot encode).
func TestNinesCappedInJSON(t *testing.T) {
	_, ts := newTestServer(t)
	// p = 0: SafeAndLive is exactly 1, where dist.Nines returns +Inf.
	resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"model":{"protocol":"raft","n":25},"p":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatalf("response not valid JSON: %v (%s)", err, b)
	}
	if ar.Nines != MaxNines {
		t.Fatalf("nines = %v, want capped at %v", ar.Nines, MaxNines)
	}
	// Same through a sweep line.
	var buf bytes.Buffer
	srv := New(Options{})
	if err := srv.Sweep(context.Background(), SweepRequest{Protocol: "raft", Ns: []int{25}, Ps: []float64{0}}, &buf); err != nil {
		t.Fatal(err)
	}
	var line SweepLine
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("sweep line not valid JSON: %v (%s)", err, buf.String())
	}
	if line.Nines != MaxNines {
		t.Fatalf("sweep nines = %v, want %v", line.Nines, MaxNines)
	}
}

// TestSweepCancellation: cancelling the sweep context (a client
// disconnect) must stop the stream promptly instead of computing the whole
// grid for nobody.
func TestSweepCancellation(t *testing.T) {
	var cells atomic.Int64
	block := make(chan struct{})
	srv := New(Options{
		Workers: 1,
		AnalyzeFunc: func(q *core.Query) (core.Result, error) {
			cells.Add(1)
			<-block
			return core.AnalyzeQuery(q), nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	// A big grid of distinct cells; every one would call the engine.
	ns := make([]int, 100)
	for i := range ns {
		ns[i] = i + 3
	}
	req := SweepRequest{Protocol: "raft", Ns: ns, Ps: []float64{0.01}}
	done := make(chan error, 1)
	go func() { done <- srv.Sweep(ctx, req, io.Discard) }()
	for cells.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	close(block)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled sweep should return an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
	// Scheduling stopped near the point of cancellation: with 1 worker and
	// a spawn window of 1, at most a handful of cells ever started, not 100.
	if got := cells.Load(); got > 4 {
		t.Fatalf("%d cells computed after cancellation, want scheduling to stop", got)
	}
}

// failAfter errors on the nth write, simulating a consumer going away.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("consumer gone")
	}
	f.n--
	return len(p), nil
}

// TestSweepStopsOnWriterError: a failing writer must stop the spawner via
// the internal cancel, not let it compute the rest of the grid.
func TestSweepStopsOnWriterError(t *testing.T) {
	var cells atomic.Int64
	srv := New(Options{
		Workers: 1,
		AnalyzeFunc: func(q *core.Query) (core.Result, error) {
			cells.Add(1)
			time.Sleep(5 * time.Millisecond) // make the spawner's progress observable
			return core.AnalyzeQuery(q), nil
		},
	})
	ns := make([]int, 200)
	for i := range ns {
		ns[i] = i + 3
	}
	req := SweepRequest{Protocol: "raft", Ns: ns, Ps: []float64{0.01}}
	err := srv.Sweep(context.Background(), req, &failAfter{n: 1})
	if err == nil {
		t.Fatal("failing writer should surface an error")
	}
	// Give any straggler goroutines a moment, then check the spawner quit
	// early rather than driving all 200 cells (~1s of engine time).
	time.Sleep(50 * time.Millisecond)
	if got := cells.Load(); got > 20 {
		t.Fatalf("%d cells computed after writer failure, want early stop", got)
	}
}

// TestAnalyzeHotPathAllocationGuard is the serving layer's allocation-
// regression guard: a repeated identical query is an L1 hit, which costs
// exactly its hex key — the fleet is resolved and fingerprinted in the
// request's scratch — so resolve and fingerprint cannot silently grow.
// Before the scratch it cost three: the key, the resolved fleet and the
// fingerprint's buffer. The library entry point, Server.Analyze, draws its
// scratch from scratchPool: without the race detector it costs the same
// one allocation; under it, where the pool drops one Put in four, at most
// a fresh scratch per call.
func TestAnalyzeHotPathAllocationGuard(t *testing.T) {
	srv := New(Options{})
	nodes := make([]NodeSpec, 9)
	for i := range nodes {
		nodes[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), PCrash: 0.01 + 0.001*float64(i)}
	}
	req := AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: 9}, Fleet: nodes}
	if _, err := srv.Analyze(req); err != nil {
		t.Fatal(err)
	}
	hit := func(sc *scratch) {
		resp, _, err := srv.analyzeTraced(req, sc, nil)
		if err != nil || !resp.Cached {
			t.Fatal("hot path must hit L1")
		}
	}
	held := new(scratch) // the scratch handlePost would pass in
	hit(held)
	if n := testing.AllocsPerRun(100, func() {
		held.reset()
		hit(held)
	}); n > 1 {
		t.Errorf("L1 hit on a held scratch allocates %v/op, want <= 1", n)
	}
	fresh := testing.AllocsPerRun(100, func() { hit(new(scratch)) })
	if n := testing.AllocsPerRun(100, func() {
		resp, err := srv.Analyze(req)
		if err != nil || !resp.Cached {
			t.Fatal("hot path must hit L1")
		}
	}); n > 1 && (!raceEnabled || n > fresh) {
		t.Errorf("Server.Analyze L1 hit allocates %v/op, want <= 1 (a fresh scratch per call costs %v)", n, fresh)
	}
}

// TestModelCacheRecoversFromFlood: the resolved-model memo is capped, and
// a client walking more distinct valid specs than the cap (q_per × q_vc
// at a few n) must not switch it off for the life of the process. After
// 5 000 such specs a fresh legitimate spec is memoized again: its second
// resolution allocates nothing.
func TestModelCacheRecoversFromFlood(t *testing.T) {
	flooded := 0
	for n := 64; flooded < 5000; n++ {
		for qper := 1; qper <= n && flooded < 5000; qper++ {
			for qvc := 1; qvc <= n && flooded < 5000; qvc++ {
				if _, err := (ModelSpec{Protocol: "raft", N: n, QPer: qper, QVC: qvc}).Model(); err == nil {
					flooded++
				}
			}
		}
	}
	if flooded <= modelCache.cap {
		t.Fatalf("flood of %d specs does not overflow the cap of %d", flooded, modelCache.cap)
	}
	fresh := ModelSpec{Protocol: "pbft", N: 13}
	if _, err := fresh.Model(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fresh.Model(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resolving a memoized spec after the flood allocates %v/op, want 0", n)
	}
}

// TestStrictDecodeRejectsTrailingData: every POST endpoint shares one
// strict decoder, which must reject anything but whitespace after the
// request object — a smuggled second request or plain garbage is a 400,
// not a silently ignored tail.
func TestStrictDecodeRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t)
	model := `"model":{"protocol":"raft","n":3},"p":0.01`
	bodies := map[string]string{
		"analyze":  `{` + model + `}`,
		"sweep":    `{"protocol":"raft","ns":[3],"ps":[0.01]}`,
		"optimize": `{` + model + `,"budget":1,"curve":{"floor_frac":0.1,"scale":0.25}}`,
		"tail":     `{` + model + `,"event":"not_live"}`,
		"batch":    `{"items":[{"analyze":{` + model + `}}]}`,
	}
	for endpoint, body := range bodies {
		url := ts.URL + "/v1/" + endpoint
		if resp, b := postJSON(t, url, body+" \n\t"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: trailing whitespace: status %d, want 200: %s", endpoint, resp.StatusCode, b)
		}
		for _, tail := range []string{` {"model":{"protocol":"bogus"}}`, ` garbage`, `]`, ` 0`} {
			resp, b := postJSON(t, url, body+tail)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "trailing data") {
				t.Errorf("%s: body + %q: status %d (%s), want 400 trailing data", endpoint, tail, resp.StatusCode, b)
			}
		}
	}
}

// TestCachedRunVerdicts drives the three cached endpoints through the
// one cachedRun path and pins what it promises each of them: a first
// call is a miss, its repeat an l1_hit, and K concurrent callers of a
// fresh key share exactly one compute — one miss, K-1 coalesced.
func TestCachedRunVerdicts(t *testing.T) {
	const K = 8
	model := ModelSpec{Protocol: "raft", N: 5}
	cases := []struct {
		name  string
		stats func(*Server) qcache.Stats
		call  func(*Server, *float64, *obs.Trace) (bool, error)
	}{
		{"analyze", func(s *Server) qcache.Stats { return s.cache.Stats() },
			func(s *Server, p *float64, tr *obs.Trace) (bool, error) {
				r, _, err := s.analyzeTraced(AnalyzeRequest{Model: model, P: p}, new(scratch), tr)
				return r.Cached, err
			}},
		{"optimize", func(s *Server) qcache.Stats { return s.ocache.Stats() },
			func(s *Server, p *float64, tr *obs.Trace) (bool, error) {
				r, err := s.optimizeTraced(OptimizeRequest{Model: model, P: p, Budget: 1, Curve: CurveSpec{FloorFrac: 0.1, Scale: 0.25}}, new(scratch), tr)
				return r.Cached, err
			}},
		// The exact tail method nests the analyze cache inside the tail
		// cache's compute: the outer verdict must be the one reported.
		{"tail", func(s *Server) qcache.Stats { return s.tcache.Stats() },
			func(s *Server, p *float64, tr *obs.Trace) (bool, error) {
				r, err := s.tailTraced(TailRequest{Model: model, P: p, Event: EventNotLive}, new(scratch), tr)
				return r.Cached, err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Options{Workers: 1})
			p1, p2 := 0.011, 0.012
			for i, want := range []string{"miss", "l1_hit"} {
				tr := &obs.Trace{}
				cached, err := tc.call(srv, &p1, tr)
				if err != nil || tr.Cache != want || cached != (i == 1) {
					t.Fatalf("call %d: verdict %q cached=%v err=%v, want %q", i, tr.Cache, cached, err, want)
				}
			}
			// Hold the only worker slot so the flight leader stalls inside
			// its compute until every other caller has coalesced onto it.
			srv.sem <- struct{}{}
			verdicts := make(chan string, K)
			for i := 0; i < K; i++ {
				go func() {
					tr := &obs.Trace{}
					if cached, err := tc.call(srv, &p2, tr); err != nil || cached {
						verdicts <- fmt.Sprintf("cached=%v err=%v", cached, err)
						return
					}
					verdicts <- tr.Cache
				}()
			}
			for tc.stats(srv).Coalesced < K-1 {
				runtime.Gosched()
			}
			<-srv.sem
			got := map[string]int{}
			for i := 0; i < K; i++ {
				got[<-verdicts]++
			}
			if got["miss"] != 1 || got["coalesced"] != K-1 {
				t.Fatalf("verdicts of %d concurrent callers = %v, want 1 miss and %d coalesced", K, got, K-1)
			}
			if st := tc.stats(srv); st.Misses != 2 || st.Hits != 1 {
				t.Fatalf("cache stats = %+v, want 2 computes (one per key) and 1 hit", st)
			}
		})
	}
}

// TestValidationErrorTexts pins the 400 bodies of queries the resolver,
// the domain layout and the work bounds refuse, as clients read them: a
// change to how requests are resolved must not reword a refusal.
func TestValidationErrorTexts(t *testing.T) {
	zones := func(n int, extra string) string {
		var b strings.Builder
		b.WriteString(`"domains":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"name":"z` + string(rune('a'+i)) + `","shock":0.01,"crash_mult":4` + extra + `}`)
		}
		return b.String() + `]`
	}
	node := `{"p_crash":0.01,"domain":"za"}`
	fleet3 := `"fleet":[` + node + `,` + node + `,` + node + `]`
	// 48 nodes round-robin over zones za–zd: optimizes over the work bound
	// for either target, a gradient priced as one engine run per node or
	// per domain.
	nodes48 := make([]string, 48)
	for i := range nodes48 {
		nodes48[i] = `{"p_crash":0.01,"domain":"z` + string(rune('a'+i%4)) + `"}`
	}
	fleet48 := `"model":{"protocol":"raft","n":48},"fleet":[` + strings.Join(nodes48, ",") + `],` + zones(4, "")
	h := New(Options{}).Handler()
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.5,` + fleet3 + `}`, `give either fleet or p, not both`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":4},` + fleet3 + `,` + zones(1, "") + `}`, `fleet has 3 nodes but model.n is 4`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"fleet":[{},{"p_crash":1.5},{}]}`, `fleet[1]: p_crash must be a probability in [0, 1], got 1.5`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"fleet":[{},{},{"p_crash":0.6,"p_byz":0.5}]}`, `fleet[2]: p_crash + p_byz must be <= 1, got 0.6 + 0.5`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":2}`, `p must be a probability in [0, 1], got 2`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3}}`, `give a fleet or a uniform p`},
		{"/v1/analyze", `{"model":{"protocol":"paxos","n":3},"p":0.1}`, `unknown protocol "paxos" (want raft or pbft)`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":0},"p":0.1}`, `cluster size must be >= 1, got 0`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.1,` + zones(17, "") + `}`, `domain count must be in [0, 16], got 17`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.1,"domains":[{"shock":0.1}]}`, `domains[0]: name is required`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.1,"domains":[{"name":"a","shock":0.1},{"name":"b","shock":-1}]}`, `domains[1].shock must be a probability in [0, 1], got -1`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.1,"domains":[{"name":"a","shock":0.1,"crash_mult":-3}]}`, `domains[0].crash_mult must be a finite multiplier >= 0, got -3`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":0.1,"domains":[{"name":"a","shock":0.1},{"name":"b","shock":0.1,"byz_mult":-0.5}]}`, `domains[1].byz_mult must be a finite multiplier >= 0, got -0.5`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},` + fleet3 + `,"domains":[{"name":"za","shock":0.1},{"name":"za","shock":0.2}]}`, `core: duplicate domain name "za"`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},` + fleet3 + `,"domains":[{"name":"zb","shock":0.1}]}`, `core: node 0 () references undefined domain "za"`},
		{"/v1/analyze", `{"model":{"protocol":"raft","n":3},"fleet":[{"name":"x","p_crash":0.1,"domain":"nowhere"},{},{}]}`, `core: node 0 (x) references undefined domain "nowhere"`},
		{"/v1/analyze", `{"model":{"protocol":"pbft","n":1024,"q_per":600,"q_vc":600,"q_eq":600,"q_vct":300},"p":0.001,` + zones(4, "") + `}`, `query needs ~2.8e+11 engine operations, maximum is 2e+10 (fewer domains or a smaller fleet)`},
		{"/v1/tail", `{"model":{"protocol":"raft","n":3},"p":0.1}`, `event is required (not_live, unsafe, or not_ok)`},
		{"/v1/tail", `{"model":{"protocol":"raft","n":3},"p":0.1,"event":"not_live","method":"guess"}`, `unknown method "guess" (want auto, exact, or importance)`},
		{"/v1/tail", `{"model":{"protocol":"raft","n":3},"fleet":[{},{"p_byz":-1},{}],"event":"unsafe"}`, `fleet[1]: p_byz must be a probability in [0, 1], got -1`},
		{"/v1/tail", `{"model":{"protocol":"raft","n":64},"p":0.1,"event":"not_live","method":"exact","max_work":10}`, `exact evaluation needs ~2.6e+05 engine operations, max_work is 10 (raise it or use method importance)`},
		{"/v1/tail", `{"model":{"protocol":"raft","n":3},"p":0.1,"event":"not_live",` + zones(2, `,"byz_mult":-1`) + `}`, `domains[0].byz_mult must be a finite multiplier >= 0, got -1`},
		{"/v1/optimize", `{"model":{"protocol":"raft","n":3},"p":0.1,"budget":1,"curve":{"floor_frac":0.1,"scale":1},"target":"domains"}`, `target domains requires a domains block`},
		{"/v1/optimize", `{"model":{"protocol":"raft","n":3},"fleet":[{},{},{"p_crash":2}],"budget":1,"curve":{"floor_frac":0.1,"scale":1}}`, `fleet[2]: p_crash must be a probability in [0, 1], got 2`},
		{"/v1/optimize", `{` + fleet48 + `,"budget":1,"curve":{"floor_frac":0.1,"scale":1}}`, `optimize needs ~3.1e+10 engine operations, maximum is 2e+10 (fewer iterations or a smaller fleet)`},
		{"/v1/optimize", `{` + fleet48 + `,"budget":1,"curve":{"floor_frac":0.1,"scale":1},"target":"domains","iterations":5000}`, `optimize needs ~2.6e+10 engine operations, maximum is 2e+10 (fewer iterations or fewer domains)`},
	} {
		rec := serve(h, http.MethodPost, tc.path, tc.body)
		var got errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, body %s", tc.path, tc.body, rec.Code, rec.Body)
			continue
		}
		if got.Error != tc.want {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.path, tc.body, got.Error, tc.want)
		}
	}
}
