package service

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// batchBody is the canonical mixed-kind batch exercised by the HTTP test
// and seeded into FuzzBatchRequest.
const batchBody = `{"items":[
  {"analyze":{"model":{"protocol":"raft","n":5},"p":0.01}},
  {"sweep":{"protocol":"raft","ns":[3,5],"ps":[0.01,0.02]}},
  {"tail":{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live"}},
  {"optimize":{"model":{"protocol":"raft","n":3},"p":0.02,"budget":1.0,"curve":{"floor_frac":0.1,"scale":0.25}}},
  {"analyze":{"model":{"protocol":"raft","n":5},"p":0.01}}
]}`

func TestBatchMixedKinds(t *testing.T) {
	_, ts := newTestServer(t)
	resp, b := postJSON(t, ts.URL+"/v1/batch", batchBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got BatchResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != 5 {
		t.Fatalf("got %d results, want 5", len(got.Items))
	}
	// Index alignment: each slot answers its item's kind.
	if got.Items[0].Analyze == nil || got.Items[1].Sweep == nil ||
		got.Items[2].Tail == nil || got.Items[3].Optimize == nil || got.Items[4].Analyze == nil {
		t.Fatalf("results misaligned: %s", b)
	}
	// Item 4 duplicates item 0 and must share its answer.
	if got.Deduped != 1 || got.Distinct != 4 {
		t.Fatalf("distinct=%d deduped=%d, want 4/1", got.Distinct, got.Deduped)
	}
	if got.Items[0].Analyze.Fingerprint != got.Items[4].Analyze.Fingerprint {
		t.Fatal("deduplicated items answered differently")
	}
	// The analyze answer matches the exact engine.
	want := core.MustAnalyze(core.UniformCrashFleet(5, 0.01), core.NewRaft(5))
	if math.Abs(got.Items[0].Analyze.SafeAndLive-want.SafeAndLive) > 1e-12 {
		t.Fatalf("batch analyze %v != core %v", got.Items[0].Analyze.SafeAndLive, want.SafeAndLive)
	}
	if len(got.Items[1].Sweep) != 4 {
		t.Fatalf("sweep grid has %d lines, want 4", len(got.Items[1].Sweep))
	}
}

// TestBatchMatchesSingleEndpoints pins that a batched query returns the
// same payload as its dedicated endpoint.
func TestBatchMatchesSingleEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	single := `{"model":{"protocol":"pbft","n":7},"p":0.01}`
	_, sb := postJSON(t, ts.URL+"/v1/analyze", single)
	var want AnalyzeResponse
	if err := json.Unmarshal(sb, &want); err != nil {
		t.Fatal(err)
	}
	_, bb := postJSON(t, ts.URL+"/v1/batch", `{"items":[{"analyze":`+single+`}]}`)
	var got BatchResponse
	if err := json.Unmarshal(bb, &got); err != nil {
		t.Fatal(err)
	}
	a := got.Items[0].Analyze
	if a == nil || a.Fingerprint != want.Fingerprint || a.SafeAndLive != want.SafeAndLive {
		t.Fatalf("batch answer differs from /v1/analyze:\n%s\n%s", bb, sb)
	}
	if !a.Cached {
		t.Fatal("repeat via batch not served from cache")
	}
}

// TestBatchDedupSingleEngineCall pins the dedup pipeline with an engine
// counter: N identical analyze items cost one engine call.
func TestBatchDedupSingleEngineCall(t *testing.T) {
	var calls atomic.Int64
	pool := core.NewEvaluatorPool()
	srv := New(Options{
		CacheCapacity: 64, CacheShards: 2, Workers: 4,
		AnalyzeFunc: func(f core.Fleet, m core.CountModel, d core.DomainSet) (core.Result, error) {
			calls.Add(1)
			return pool.AnalyzeDomains(f, m, d)
		},
	})
	p := 0.017
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{Analyze: &AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: 9}, P: &p}}
	}
	resp, err := srv.Batch(BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("16 identical items made %d engine calls, want 1", calls.Load())
	}
	if resp.Distinct != 1 || resp.Deduped != 15 {
		t.Fatalf("distinct=%d deduped=%d, want 1/15", resp.Distinct, resp.Deduped)
	}
	for i, it := range resp.Items {
		if it.Analyze == nil || it.Error != "" {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
}

// TestBatchItemErrorIsolation: a bad item errors in its slot; its
// neighbors still compute; the batch itself is 200.
func TestBatchItemErrorIsolation(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"items":[
	  {"analyze":{"model":{"protocol":"raft","n":5},"p":0.01}},
	  {"analyze":{"model":{"protocol":"raft","n":-1},"p":0.01}},
	  {},
	  {"analyze":{"model":{"protocol":"raft","n":3},"p":0.01}},
	  {"analyze":{"model":{"protocol":"raft","n":3},"p":0.01},"tail":{"model":{"protocol":"raft","n":3},"p":0.01,"event":"not_live"}}
	]}`
	resp, b := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (item errors are isolated): %s", resp.StatusCode, b)
	}
	var got BatchResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Items[0].Error != "" || got.Items[0].Analyze == nil {
		t.Fatalf("good item 0 failed: %+v", got.Items[0])
	}
	if got.Items[1].Error == "" || got.Items[1].Analyze != nil {
		t.Fatalf("bad item 1 not isolated: %+v", got.Items[1])
	}
	if !strings.Contains(got.Items[2].Error, "must set one of") {
		t.Fatalf("empty item error = %q", got.Items[2].Error)
	}
	if got.Items[3].Error != "" || got.Items[3].Analyze == nil {
		t.Fatalf("good item 3 failed: %+v", got.Items[3])
	}
	if !strings.Contains(got.Items[4].Error, "exactly 1") {
		t.Fatalf("two-kind item error = %q", got.Items[4].Error)
	}
}

// TestBatchWholeRequestRejections: only an unreadable, empty, or
// oversized batch fails the whole request — as a client error.
func TestBatchWholeRequestRejections(t *testing.T) {
	_, ts := newTestServer(t)
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= MaxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"analyze":{"model":{"protocol":"raft","n":3},"p":0.01}}`)
	}
	sb.WriteString(`]}`)
	cases := map[string]string{
		"empty items":  `{"items":[]}`,
		"missing body": `{}`,
		"bad json":     `{"items":`,
		"unknown key":  `{"itemz":[]}`,
		"too many":     sb.String(),
	}
	for name, body := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, b)
		}
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/batch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchStatsCount pins the /statsz batch block counters.
func TestBatchStatsCount(t *testing.T) {
	srv, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/batch", batchBody)
	postJSON(t, ts.URL+"/v1/batch", `{"items":[{}]}`)
	st := srv.batchStats()
	if st.Items != 5 {
		t.Fatalf("Items = %d, want 5 (the empty item never counts a kind)", st.Items)
	}
	if st.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1", st.Deduped)
	}
	if st.ItemErrors != 1 {
		t.Fatalf("ItemErrors = %d, want 1", st.ItemErrors)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/statsz", &stats)
	if stats.Batch.Items != 5 || stats.Requests.Batch != 2 {
		t.Fatalf("statsz batch block: %+v requests.batch=%d", stats.Batch, stats.Requests.Batch)
	}
}

// TestBatchPlansOnce pins plan-once batch planning: an item is planned
// exactly as its endpoint plans it — so what the endpoint rejects is a
// planning failure, not a scheduled job — and the job runs that plan
// without resolving, validating or keying anything a second time.
func TestBatchPlansOnce(t *testing.T) {
	srv, ts := newTestServer(t)
	// target=domains without a domains block is a 400 on /v1/optimize, so
	// in a batch it must fail in its slot, count as an item error, and
	// never take a job (or a worker slot).
	bad := `{"model":{"protocol":"raft","n":3},"p":0.02,"budget":1.0,"curve":{"floor_frac":0.1,"scale":0.25},"target":"domains"}`
	if resp, b := postJSON(t, ts.URL+"/v1/optimize", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/optimize: status %d, want 400: %s", resp.StatusCode, b)
	}
	resp, b := postJSON(t, ts.URL+"/v1/batch", `{"items":[{"optimize":`+bad+`}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got BatchResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Items[0].Error, "requires a domains block") || got.Distinct != 0 {
		t.Fatalf("invalid optimize item was scheduled: distinct=%d item=%+v", got.Distinct, got.Items[0])
	}
	if n := sampleValue(t, scrapeMetrics(t, ts), "probconsd_batch_item_errors_total"); n != 1 {
		t.Fatalf("probconsd_batch_item_errors_total = %v, want 1", n)
	}

	// Plan one item of each cached kind, then corrupt the requests the
	// plans were built from: a job that re-planned would now fail
	// validation (p_crash = 2), a job that runs its plan answers the
	// original query.
	fleet := func() []NodeSpec { return []NodeSpec{{PCrash: 0.011}, {PCrash: 0.012}, {PCrash: 0.013}} }
	model := ModelSpec{Protocol: "raft", N: 3}
	areq := AnalyzeRequest{Model: model, Fleet: fleet()}
	treq := TailRequest{Model: model, Fleet: fleet(), Event: EventNotLive}
	oreq := OptimizeRequest{Model: model, Fleet: fleet(), Budget: 1, Curve: CurveSpec{FloorFrac: 0.1, Scale: 0.25}}
	ref := New(Options{})
	wantA, errA := ref.Analyze(areq)
	wantT, errT := ref.Tail(treq)
	wantO, errO := ref.Optimize(oreq)
	if errA != nil || errT != nil || errO != nil {
		t.Fatal(errA, errT, errO)
	}
	jobs, _, _, err := srv.planBatch(BatchRequest{Items: []BatchItem{{Analyze: &areq}, {Tail: &treq}, {Optimize: &oreq}}})
	if err != nil || len(jobs) != 3 {
		t.Fatalf("planBatch = %d jobs, %v; want 3", len(jobs), err)
	}
	areq.Fleet[0].PCrash, treq.Fleet[0].PCrash, oreq.Fleet[0].PCrash = 2, 2, 2
	a, tl, o := jobs[0].run(), jobs[1].run(), jobs[2].run()
	if a.Error != "" || a.Analyze.Fingerprint != wantA.Fingerprint || a.Analyze.SafeAndLive != wantA.SafeAndLive {
		t.Fatalf("analyze job did not run its plan: %+v", a)
	}
	if tl.Error != "" || tl.Tail.Fingerprint != wantT.Fingerprint || tl.Tail.P != wantT.P {
		t.Fatalf("tail job did not run its plan: %+v", tl)
	}
	if o.Error != "" || o.Optimize.Fingerprint != wantO.Fingerprint || o.Optimize.Optimized != wantO.Optimized {
		t.Fatalf("optimize job did not run its plan: %+v", o)
	}
	// The plan carries the fingerprint: a warm analyze job is a cache
	// lookup under the planned key plus the box its result is returned
	// in — a second fingerprint would cost two more allocations.
	if n := testing.AllocsPerRun(100, func() { jobs[0].run() }); n > 1 {
		t.Fatalf("warm analyze job allocates %v/op, want <= 1 (no second fingerprint)", n)
	}
}
