package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// serve pushes one request through h and returns what a client would read.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// referenceBody is the oracle of the stored hit body: what the handler
// wrote for every response before bodies were stored — encoding/json with
// a two-space indent over the response struct.
func referenceBody(t *testing.T, resp AnalyzeResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAnalyzeBody reads a served analyze body back into its struct,
// refusing anything the struct does not carry.
func decodeAnalyzeBody(t *testing.T, body []byte) AnalyzeResponse {
	t.Helper()
	var resp AnalyzeResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("served body does not decode: %v\n%s", err, body)
	}
	return resp
}

// identityQueries are the bodies the stored-body tests ask: every query of
// the paper's Tables 1–2, a 25-node heterogeneous PBFT fleet and a fleet
// spread over shocked zones.
func identityQueries() []string {
	var qs []string
	for _, m := range core.Table1Configs() {
		qs = append(qs, fmt.Sprintf(`{"model":{"protocol":"pbft","n":%d,"q_eq":%d,"q_per":%d,"q_vc":%d,"q_vct":%d},"fleet":[%s]}`,
			m.NNodes, m.QEq, m.QPer, m.QVC, m.QVCT, strings.TrimSuffix(strings.Repeat(`{"p_byz":0.01},`, m.NNodes), ",")))
	}
	for _, n := range core.Table2Sizes() {
		for _, pu := range core.Table2PUs() {
			qs = append(qs, fmt.Sprintf(`{"model":{"protocol":"raft","n":%d},"p":%v}`, n, pu))
		}
	}
	var pbft strings.Builder
	pbft.WriteString(`{"model":{"protocol":"pbft","n":25},"fleet":[`)
	for i := 0; i < 25; i++ {
		if i > 0 {
			pbft.WriteByte(',')
		}
		fmt.Fprintf(&pbft, `{"name":"r%d","p_crash":%v,"p_byz":%v}`, i, 0.004+0.0007*float64(i), 0.0002+0.00003*float64(i%7))
	}
	pbft.WriteString(`]}`)
	return append(qs, pbft.String(), string(churnBody))
}

// TestStoredHitBodyMatchesEncoder is the identity the stored body rests
// on: the second and third answers to a query are the same bytes, and
// those bytes are what the reference encoder makes of the first answer's
// struct with Cached set — while the first answer, a miss, is the
// reference encoding of itself.
func TestStoredHitBodyMatchesEncoder(t *testing.T) {
	h := New(Options{}).Handler()
	for _, q := range identityQueries() {
		var bodies [3][]byte
		for i := range bodies {
			rec := serve(h, http.MethodPost, "/v1/analyze", q)
			if rec.Code != http.StatusOK {
				t.Fatalf("%.60s: POST %d: status %d: %s", q, i+1, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}
		resp := decodeAnalyzeBody(t, bodies[0])
		if resp.Cached || !bytes.Equal(bodies[0], referenceBody(t, resp)) {
			t.Errorf("%.60s: the miss is not the reference encoding of itself:\n%s", q, bodies[0])
		}
		resp.Cached = true
		want := referenceBody(t, resp)
		for i, got := range bodies[1:] {
			if !bytes.Equal(got, want) {
				t.Errorf("%.60s: POST %d:\n%s\nwant the reference encoding of the cached answer:\n%s", q, i+2, got, want)
			}
		}
	}
}

// entryFor is the analyze cache's entry for the query in body.
func entryFor(t *testing.T, srv *Server, body string) *analyzeEntry {
	t.Helper()
	var req AnalyzeRequest
	if err := decodeRequest([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	p, err := planAnalyze(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := srv.cache.Get(p.key)
	if !ok {
		t.Fatalf("no cache entry for %s", body)
	}
	return e
}

// TestOneEncodePerResponse counts encodes where they can be seen, in the
// entry's body slot: a miss leaves it empty (the handler's own encode was
// the only one), the first plain hit fills it, and every later hit serves
// that very slice, so nothing is encoded again.
func TestOneEncodePerResponse(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	const q = `{"model":{"protocol":"raft","n":5},"p":0.02}`

	serve(h, http.MethodPost, "/v1/analyze", q)
	e := entryFor(t, srv, q)
	if e.body.Load() != nil {
		t.Fatal("a miss stored a hit body: it encoded its response twice")
	}
	second := serve(h, http.MethodPost, "/v1/analyze", q)
	stored := e.body.Load()
	if stored == nil || !bytes.Equal(*stored, second.Body.Bytes()) {
		t.Fatalf("the first plain hit did not publish the body it was answered with")
	}
	third := serve(h, http.MethodPost, "/v1/analyze", q)
	if e.body.Load() != stored || !bytes.Equal(third.Body.Bytes(), *stored) {
		t.Fatal("a later hit replaced or bypassed the stored body")
	}
	// The method call is a hit too, and has no use for a body.
	const fresh = `{"model":{"protocol":"raft","n":5},"p":0.03}`
	var req AnalyzeRequest
	if err := decodeRequest([]byte(fresh), &req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Analyze(req); err != nil {
			t.Fatal(err)
		}
	}
	if entryFor(t, srv, fresh).body.Load() != nil {
		t.Fatal("Server.Analyze encoded a body nobody reads")
	}
}

// TestDebugHitLeavesStoredBodyAlone: a debugged request on an entry that
// already has a stored body still gets its own debug block, and the plain
// hit after it reads the same bytes as the one before.
func TestDebugHitLeavesStoredBodyAlone(t *testing.T) {
	h := New(Options{}).Handler()
	const plain = `{"model":{"protocol":"pbft","n":7},"p":0.01}`
	const debugged = `{"model":{"protocol":"pbft","n":7},"p":0.01,"debug":true}`
	serve(h, http.MethodPost, "/v1/analyze", plain)
	before := serve(h, http.MethodPost, "/v1/analyze", plain).Body.Bytes()

	dbg := decodeAnalyzeBody(t, serve(h, http.MethodPost, "/v1/analyze", debugged).Body.Bytes())
	if dbg.Debug == nil || dbg.Debug.Cache != verdictHit || dbg.Debug.RequestID == "" || !dbg.Cached {
		t.Fatalf("debugged hit = %+v, want cached with an l1_hit debug block", dbg)
	}
	after := serve(h, http.MethodPost, "/v1/analyze", plain).Body.Bytes()
	if !bytes.Equal(before, after) || bytes.Contains(after, []byte(`"debug"`)) {
		t.Fatalf("plain hit after a debugged one:\n%s\nwant the bytes served before it:\n%s", after, before)
	}
}

// TestWarmedEntriesServePlainHits: an entry that arrives by LoadCache or
// L2Put was never encoded by this server; its first and second hits must
// still be the reference encoding of the value that was put.
func TestWarmedEntriesServePlainHits(t *testing.T) {
	const q = `{"model":{"protocol":"raft","n":7},"p":0.015}`
	origin := New(Options{})
	want := decodeAnalyzeBody(t, serve(origin.Handler(), http.MethodPost, "/v1/analyze", q).Body.Bytes())
	want.Cached = true
	var dump bytes.Buffer
	if n, err := origin.DumpCache(&dump); err != nil || n != 1 {
		t.Fatalf("DumpCache = %d, %v", n, err)
	}
	wire, err := marshalCached(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []struct {
		name string
		fill func(*Server) error
	}{
		{"LoadCache", func(s *Server) error { _, err := s.LoadCache(bytes.NewReader(dump.Bytes())); return err }},
		{"L2Put", func(s *Server) error { return s.L2Put(want.Fingerprint, wire) }},
	} {
		calls := 0
		srv := New(Options{AnalyzeFunc: func(core.Fleet, core.CountModel, core.DomainSet) (core.Result, error) {
			calls++
			return core.Result{}, nil
		}})
		if err := warm.fill(srv); err != nil {
			t.Fatalf("%s: %v", warm.name, err)
		}
		for i := 0; i < 2; i++ {
			if got := serve(srv.Handler(), http.MethodPost, "/v1/analyze", q).Body.Bytes(); !bytes.Equal(got, referenceBody(t, want)) {
				t.Errorf("%s: hit %d:\n%s\nwant\n%s", warm.name, i+1, got, referenceBody(t, want))
			}
		}
		if calls != 0 {
			t.Errorf("%s: the warmed entry was recomputed %d times", warm.name, calls)
		}
	}
}

// TestEvictedEntryServesRecomputedBytes: the stored body lives and dies
// with its entry. The engine here answers differently each time it runs,
// so bytes kept past an eviction would show.
func TestEvictedEntryServesRecomputedBytes(t *testing.T) {
	var runs atomic.Int64
	srv := New(Options{CacheCapacity: 1, CacheShards: 1,
		AnalyzeFunc: func(core.Fleet, core.CountModel, core.DomainSet) (core.Result, error) {
			p := 1 - 0.125*float64(runs.Add(1))
			return core.Result{Safe: p, Live: p, SafeAndLive: p}, nil
		}})
	h := srv.Handler()
	const a = `{"model":{"protocol":"raft","n":3},"p":0.01}`
	const b = `{"model":{"protocol":"raft","n":3},"p":0.02}`
	hit := func() AnalyzeResponse {
		serve(h, http.MethodPost, "/v1/analyze", a)
		body := serve(h, http.MethodPost, "/v1/analyze", a).Body.Bytes()
		resp := decodeAnalyzeBody(t, body)
		if again := serve(h, http.MethodPost, "/v1/analyze", a).Body.Bytes(); !resp.Cached || !bytes.Equal(body, again) || !bytes.Equal(body, referenceBody(t, resp)) {
			t.Fatalf("hits on a:\n%s\n%s", body, again)
		}
		return resp
	}
	first := hit()
	serve(h, http.MethodPost, "/v1/analyze", b) // capacity 1: evicts a
	second := hit()
	if first.Safe != 0.875 || second.Safe != 0.625 {
		t.Fatalf("safe = %v then %v, want the first and the third engine run (0.875, 0.625)", first.Safe, second.Safe)
	}
}

// TestFirstHitRace: 32 goroutines take the first hit on one entry at
// once. Whichever encode gets published, every one of them must have been
// answered with the same bytes (run under -race -count=10).
func TestFirstHitRace(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	const q = `{"model":{"protocol":"pbft","n":10},"p":0.01}`
	serve(h, http.MethodPost, "/v1/analyze", q)
	const racers = 32
	bodies := make([][]byte, racers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range bodies {
		i := i
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			bodies[i] = serve(h, http.MethodPost, "/v1/analyze", q).Body.Bytes()
		}()
	}
	start.Done()
	done.Wait()
	resp := decodeAnalyzeBody(t, bodies[0])
	if want := referenceBody(t, resp); !resp.Cached || !bytes.Equal(bodies[0], want) {
		t.Fatalf("first racer read\n%s\nwant\n%s", bodies[0], want)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("racer %d read\n%s\nracer 0 read\n%s", i, b, bodies[0])
		}
	}
	if stored := entryFor(t, srv, q).body.Load(); stored == nil || !bytes.Equal(*stored, bodies[0]) {
		t.Error("the published body is not the one the racers read")
	}
}

// TestUnencodableResponseIs500: a value encoding/json refuses used to be a
// 200 with an empty body, no trace error, counted 2xx — the header went out
// before the encode and the encoder's error was dropped.
func TestUnencodableResponseIs500(t *testing.T) {
	srv := New(Options{})
	h := srv.instrument("healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, struct {
			Safe float64 `json:"safe"`
		}{math.NaN()})
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))

	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.HasPrefix(body.Error, "encoding response: ") || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("status %d, body %q (%v); want a 500 whose error starts \"encoding response: \" and names NaN", rec.Code, rec.Body, err)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q on a %d-byte body", got, rec.Body.Len())
	}
	codes := srv.m.endpoints["healthz"].codes
	if codes["5xx"].Load() != 1 || codes["2xx"].Load() != 0 {
		t.Errorf("counted 2xx=%d 5xx=%d, want the one request under 5xx", codes["2xx"].Load(), codes["5xx"].Load())
	}
	traces := srv.traces.Query(obs.TraceFilter{MinStatus: 500})
	if len(traces) != 1 || traces[0].Error != body.Error || traces[0].Keep != obs.KeepError {
		t.Errorf("error traces = %+v, want one carrying %q", traces, body.Error)
	}
}

// TestContentLengthOnEveryStatus: every JSON response announces its exact
// length, whatever the status and whichever path wrote it.
func TestContentLengthOnEveryStatus(t *testing.T) {
	h := New(Options{}).Handler()
	const q = `{"model":{"protocol":"raft","n":3},"p":0.01}`
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
	}{
		{"miss", http.MethodPost, "/v1/analyze", q, http.StatusOK},
		{"first hit", http.MethodPost, "/v1/analyze", q, http.StatusOK},
		{"stored hit", http.MethodPost, "/v1/analyze", q, http.StatusOK},
		{"healthz", http.MethodGet, "/healthz", "", http.StatusOK},
		{"bad request", http.MethodPost, "/v1/analyze", `{"model":{"protocol":"raft","n":3},"p":2}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"oversized", http.MethodPost, "/v1/analyze", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
	} {
		rec := serve(h, tc.method, tc.path, tc.body)
		if rec.Code != tc.status || rec.Body.Len() == 0 {
			t.Errorf("%s: status %d, %d-byte body; want %d", tc.name, rec.Code, rec.Body.Len(), tc.status)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q on a %d-byte body", tc.name, got, rec.Body.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, got)
		}
	}
}

// TestRequestIDShape pins requestID to the "%s-%08x" it replaced, past the
// point where the sequence outgrows eight digits.
func TestRequestIDShape(t *testing.T) {
	for _, seq := range []uint64{1, 0xabc, 0xffffffff, 1 << 32, 0x123456789a, math.MaxUint64} {
		if got, want := requestID(seq), fmt.Sprintf("%s-%08x", reqIDPrefix, seq); got != want {
			t.Errorf("requestID(%#x) = %q, want %q", seq, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = requestID(0x2a) }); n > 1 {
		t.Errorf("requestID allocates %v times, want only the string", n)
	}
}

// serveAllocs replays body through the handler n times, the way the
// benchmark's service.allocs_per_req and service.bytes_per_req do:
// requests and recorders are built beforehand so only what the handler
// allocates is counted.
func serveAllocs(h http.Handler, n int, body func(i int) []byte) (allocs, bytesPer float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body(i)))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// newLoggedHandler is the handler the daemon runs by default: a text
// access log, here formatted into the void.
func newLoggedHandler() http.Handler {
	return New(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
}

// TestServeHitAllocationGuard extends TestAnalyzeHotPathAllocationGuard
// from the method to the whole handler: decode, lookup, the stored body,
// the log line and the trace of a plain hit on the benchmark's hot_small
// shape — 37 allocations and 4037 B on go1.24. Before bodies were stored
// and the log attrs typed, the same loop read 51 and 5263 B.
func TestServeHitAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	h := newLoggedHandler()
	for i := 0; i < 64; i++ { // miss, first hit, and a primed trace free list
		serve(h, http.MethodPost, "/v1/analyze", string(hotBody))
	}
	allocs, bytesPer := serveAllocs(h, 200, func(int) []byte { return hotBody })
	t.Logf("plain hit through the handler: %.2f allocs, %.0f B", allocs, bytesPer)
	if allocs > 38 || bytesPer > 4150 {
		t.Errorf("plain hit through the handler: %.2f allocs and %.0f B, want at most 38 and 4150", allocs, bytesPer)
	}
}

// uniqueHotBody is hotBody with its first node's p_crash replaced, so that
// every i is a different fingerprint: a miss.
func uniqueHotBody(i int) []byte {
	const field = `"p_crash":`
	at := bytes.Index(hotBody, []byte(field)) + len(field)
	end := at + bytes.IndexByte(hotBody[at:], ',')
	b := append([]byte(nil), hotBody[:at]...)
	b = strconv.AppendFloat(b, 0.001+1e-7*float64(i), 'g', -1, 64)
	return append(b, hotBody[end:]...)
}

// BenchmarkServeHit and BenchmarkServeMiss time one analyze request
// through the daemon's default handler — hot_small's and (at a ninth of
// the fleet) domain_churn's per-request path.
func BenchmarkServeHit(b *testing.B) {
	h := newLoggedHandler()
	for i := 0; i < 2; i++ { // the miss, then the hit that stores the body
		serve(h, http.MethodPost, "/v1/analyze", string(hotBody))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(hotBody)))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code, rec.Body)
		}
	}
}

func BenchmarkServeMiss(b *testing.B) {
	h := newLoggedHandler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(uniqueHotBody(i))))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code, rec.Body)
		}
	}
}
