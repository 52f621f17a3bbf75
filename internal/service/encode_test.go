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
// reference encoding of itself. The third comes through the body index.
func TestStoredHitBodyMatchesEncoder(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for _, q := range identityQueries() {
		var bodies [3][]byte
		for i := range bodies {
			indexed := srv.m.indexHits.Load()
			rec := serve(h, http.MethodPost, "/v1/analyze", q)
			if rec.Code != http.StatusOK {
				t.Fatalf("%.60s: POST %d: status %d: %s", q, i+1, rec.Code, rec.Body)
			}
			if got, want := srv.m.indexHits.Load()-indexed, int64(i/2); got != want {
				t.Fatalf("%.60s: POST %d: %d body index answers, want %d", q, i+1, got, want)
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
	p, err := planAnalyze(&req, new(queryScratch), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := srv.cache.Do(p.key, func() (*analyzeEntry, error) {
		return nil, fmt.Errorf("no cache entry for %s", body)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOneEncodePerResponse counts encodes where they can be seen, in the
// entry's body slot: a miss leaves it empty (the handler's own encode was
// the only one), the first plain hit fills it, and every later hit serves
// that very slice, so nothing is encoded again — the third through the
// body index.
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
	indexed := srv.m.indexHits.Load()
	third := serve(h, http.MethodPost, "/v1/analyze", q)
	if e.body.Load() != stored || !bytes.Equal(third.Body.Bytes(), *stored) {
		t.Fatal("a later hit replaced or bypassed the stored body")
	}
	if got := srv.m.indexHits.Load() - indexed; got != 1 {
		t.Fatalf("the third answer came through the body index %d times, want 1", got)
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

// TestEvictedEntryServesRecomputedBytes: the stored body lives and dies
// with its entry. The engine here answers differently each time it runs,
// so bytes kept past an eviction would show.
func TestEvictedEntryServesRecomputedBytes(t *testing.T) {
	var runs atomic.Int64
	srv := New(Options{CacheCapacity: 1, CacheShards: 1,
		AnalyzeFunc: func(*core.Query) (core.Result, error) {
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
	h := srv.instrument("healthz", http.MethodGet, func(w http.ResponseWriter, _ *http.Request, tr *obs.Trace) {
		writeJSON(w, tr, http.StatusOK, struct {
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

// serveAllocs replays body(0) … body(n-1) through h the way the
// benchmark's service.allocs_per_req and service.bytes_per_req do:
// requests and recorders are built beforehand so only what the handler
// allocates is counted. Before it counts, h is warmed up with body(-1) …
// body(-warmRequests), after the requests are built: building them
// allocates about 400 B … 20 KB a request, and two GC cycles between the
// warm-up and the window would empty every sync.Pool, so the first
// measured request would rebuild its pooled decode target and scratch —
// one fleet's worth of allocations, 1.3–1.5 per request over the window,
// in some runs and not in others. Warm-up and window also share one P,
// whose private pool slots are the ones the window reads.
func serveAllocs(h http.Handler, n int, body func(i int) []byte) (allocs, bytesPer float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body(i)))
		recs[i] = httptest.NewRecorder()
	}
	for i := 0; i < warmRequests; i++ {
		serve(h, http.MethodPost, "/v1/analyze", string(body(-1-i)))
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

// guardBound is an allocation guard's bound on a pooled path: tight, or
// race under the race detector. There sync.Pool drops one Put in four at
// random, so about a quarter of requests start from fresh pool entries
// (decode target, query scratch, body buffers): race sits well above that
// average and well below a handler whose pools reuse nothing.
func guardBound(tight, race float64) float64 {
	if raceEnabled {
		return race
	}
	return tight
}

// warmRequests is the allocation guards' warm-up: past the default
// flight recorder's 1 024 records, so that measured requests recycle
// trace records, as a daemon's do once it has served that many. (Until
// the retained ring fills, a sampled request still adds a fresh one.)
const warmRequests = 1200

// TestServeHitAllocationGuard extends TestAnalyzeHotPathAllocationGuard
// from the method to the whole handler on the benchmark's hot_small
// shape: a repeat of a body answered through the body index — read,
// index, lookup, the stored body, the log line and the trace — 12.1
// allocations and 1.4 KB on go1.24 (14.1 and 1.5 KB when every repeat
// was decoded, resolved and fingerprinted). Under -race it reads about 24
// and 5.1 KB, and a handler whose pools reuse nothing 48 and 8.1 KB.
func TestServeHitAllocationGuard(t *testing.T) {
	h := newLoggedHandler()
	allocs, bytesPer := serveAllocs(h, 200, func(int) []byte { return hotBody }) // the miss, the first hit, then index answers
	t.Logf("plain hit through the handler: %.2f allocs, %.0f B", allocs, bytesPer)
	if maxAllocs, maxBytes := guardBound(13, 41), guardBound(1500, 7600); allocs > maxAllocs || bytesPer > maxBytes {
		t.Errorf("plain hit through the handler: %.2f allocs and %.0f B, want at most %.0f and %.0f", allocs, bytesPer, maxAllocs, maxBytes)
	}
}

// TestServeMissAllocationGuard is TestServeHitAllocationGuard for misses,
// at domain_churn's shape (48 nodes in four zones, one zone's shock moving
// per request) and cold_large's (256 independent nodes): decode, resolve,
// fingerprint, engine, insert, encode, log line and trace, all through
// the handler the daemon runs — 23.1 allocations and 2.0 KB at both
// shapes on go1.24, stable between runs since serveAllocs builds its
// requests before the warm-up. Under -race they read about 90 and 24 KB,
// and 115 and 79 KB; a handler whose pools reuse nothing read about 240
// and 40 KB, and 320 and 130 KB, there before responses were encoded
// through pooled scratch.
func TestServeMissAllocationGuard(t *testing.T) {
	for _, tc := range []struct {
		name          string
		body          func(int) []byte
		allocs, bytes float64
	}{
		{"domain_churn", uniqueChurnBody, guardBound(24, 185), guardBound(2150, 36000)},
		{"cold_large", uniqueColdBody, guardBound(24, 185), guardBound(2200, 115000)},
	} {
		allocs, bytesPer := serveAllocs(newLoggedHandler(), 200, tc.body)
		t.Logf("%s miss through the handler: %.2f allocs, %.0f B", tc.name, allocs, bytesPer)
		if allocs > tc.allocs || bytesPer > tc.bytes {
			t.Errorf("%s miss through the handler: %.2f allocs and %.0f B, want at most %.0f and %.0f", tc.name, allocs, bytesPer, tc.allocs, tc.bytes)
		}
	}
}

// uniqueBody is body with the first value of field replaced by a value
// unique to i, so that every i is a different fingerprint: a miss.
func uniqueBody(body []byte, field string, i int) []byte {
	at := bytes.Index(body, []byte(field)) + len(field)
	end := at + bytes.IndexAny(body[at:], ",}")
	b := append([]byte(nil), body[:at]...)
	b = strconv.AppendFloat(b, 0.001+1e-7*float64(i), 'g', -1, 64)
	return append(b, body[end:]...)
}

// The miss shapes: hot_small's fleet with one node's p_crash moved,
// domain_churn's with one zone's shock moved, and cold_large's.
func uniqueHotBody(i int) []byte   { return uniqueBody(hotBody, `"p_crash":`, i) }
func uniqueChurnBody(i int) []byte { return uniqueBody(churnBody, `"shock":`, i) }
func uniqueColdBody(i int) []byte  { return uniqueBody(coldBody, `"p_crash":`, i) }

// BenchmarkServeHit and BenchmarkServeMiss time one analyze request
// through the daemon's default handler — hot_small's and (at a ninth of
// the fleet) domain_churn's per-request path. BenchmarkServeMissDomains
// and BenchmarkServeMissLarge are the misses at domain_churn's and
// cold_large's own shapes.
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

func BenchmarkServeMiss(b *testing.B)        { benchmarkServeMiss(b, uniqueHotBody) }
func BenchmarkServeMissDomains(b *testing.B) { benchmarkServeMiss(b, uniqueChurnBody) }
func BenchmarkServeMissLarge(b *testing.B)   { benchmarkServeMiss(b, uniqueColdBody) }

func benchmarkServeMiss(b *testing.B, body func(int) []byte) {
	h := newLoggedHandler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body(i))))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code, rec.Body)
		}
	}
}

// indentSeeds are FuzzIndentMatchesEncodingJSON's seed corpus: encoding/json's
// output for the zero value of every response type and for bodies every
// endpoint served, empty and nested-empty objects and arrays, strings
// holding the bytes the pass must not take for structure, and a value 24
// levels deep.
func indentSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, v := range []any{
		AnalyzeResponse{}, SweepLine{}, OptimizeResponse{}, TailResponse{}, BatchResponse{},
		TablesResponse{}, StatsResponse{}, TracesResponse{}, errorBody{},
		AnalyzeResponse{Debug: &DebugInfo{Spans: []SpanView{{}}}},
		BatchResponse{Items: []BatchItemResult{{Sweep: []SweepLine{{}}}, {Analyze: &AnalyzeResponse{}}, {Error: "e"}}},
		errorBody{Error: "quote \" backslash \\ colon : comma , brackets [ ] { } line separator \u2028 html <>&"},
		map[string]any{"": "", `"k:{`: []any{}, "\\": map[string]any{}, "n": []any{[]any{}, map[string]any{"a": []any{}}}},
	} {
		add(v)
	}
	h := New(Options{}).Handler()
	for _, r := range lifetimeRequests() {
		seeds = append(seeds, compactBody(t, serve(h, http.MethodPost, r.path, r.body).Body.Bytes()))
	}
	for _, path := range []string{"/v1/tables", "/statsz", "/v1/traces", "/healthz", "/v1/analyze"} {
		seeds = append(seeds, compactBody(t, serve(h, http.MethodGet, path, "").Body.Bytes()))
	}
	for _, s := range []string{`{}`, `[]`, `[{}]`, `{"a":[]}`, `[[],[[]],{"b":{}}]`, `"s"`, `0`, `-1.5e-7`, `null`, `true`,
		`"\"\\\\"`, `{"\\\"":"\\"}`, "[\"\u2028<>&\",\":,[]{}\"]"} {
		seeds = append(seeds, []byte(s))
	}
	// Deeper than the 16 levels appendNewline copies in one piece.
	deep := strings.Repeat(`{"k":[`, 12) + "1" + strings.Repeat("]}", 12)
	return append(seeds, []byte(deep))
}

func compactBody(t testing.TB, body []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatalf("served body is not JSON: %v\n%s", err, body)
	}
	return buf.Bytes()
}

// FuzzIndentMatchesEncodingJSON holds appendIndent to json.Indent with a
// two-space indent, byte for byte, over any valid JSON laid out compactly
// by json.Compact — with and without the Encoder's trailing newline.
func FuzzIndentMatchesEncodingJSON(f *testing.F) {
	for _, s := range indentSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		for _, src := range [][]byte{compact.Bytes(), append(compact.Bytes(), '\n')} {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatal(err)
			}
			// appendIndent appends: what dst already holds stays in front.
			if got := appendIndent([]byte("prefix"), src); !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
				t.Fatalf("appendIndent(%q):\n%s\njson.Indent:\n%s", src, got, want.Bytes())
			}
		}
	})
}

// BenchmarkEncodeJSON times one response body through encodeJSON into a
// reused buffer: domain_churn's analyze miss, and a batch answer carrying
// one 32-cell sweep.
func BenchmarkEncodeJSON(b *testing.B) {
	srv := New(Options{})
	var req AnalyzeRequest
	if err := decodeRequest(churnBody, &req); err != nil {
		b.Fatal(err)
	}
	analyze, err := srv.Analyze(req)
	if err != nil {
		b.Fatal(err)
	}
	sweep, err := srv.Batch(BatchRequest{Items: []BatchItem{{Sweep: &SweepRequest{
		Protocol: "raft", Ns: []int{3, 5, 7, 9}, Ps: []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}}}}})
	if err != nil || len(sweep.Items[0].Sweep) != 32 {
		b.Fatalf("sweep: %v, %+v", err, sweep)
	}
	for _, bc := range []struct {
		name string
		v    any
	}{{"analyze", analyze}, {"sweep32", sweep}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := encodeJSON(&buf, bc.v); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}
