package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// lifetimeRequest is one request of TestScratchLifetime: where it goes and
// what it says.
type lifetimeRequest struct{ path, body string }

// lifetimeRequests mixes every pooled POST endpoint over different fleets:
// correlated and independent analyze queries (plain, debugged, uniform and
// refused), exact and sampled tails, node and domain optimizations, and
// batches that carry all of them, a sweep and a refused item.
func lifetimeRequests() []lifetimeRequest {
	zones := `"domains":[{"name":"za","shock":0.01,"crash_mult":4},{"name":"zb","shock":0.02,"crash_mult":3},{"name":"zc","shock":0.005,"crash_mult":6}]`
	node := func(i int) string {
		return fmt.Sprintf(`{"name":"n%d","p_crash":%g,"p_byz":0.0005}`, i, 0.01+0.004*float64(i))
	}
	fleet5 := `"fleet":[` + node(0) + `,` + node(1) + `,` + node(2) + `,` + node(3) + `,` + node(4) + `]`
	churn := func(i int) string { return string(uniqueChurnBody(i)) }
	tail := func(body, rest string) string { return strings.TrimSuffix(body, "}") + "," + rest + "}" }
	optimize := func(budget float64) string {
		return fmt.Sprintf(`{"model":{"protocol":"raft","n":5},%s,"budget":%g,"curve":{"floor_frac":0.1,"scale":1}}`, fleet5, budget)
	}
	domainsOpt := `{"model":{"protocol":"raft","n":9},"p":0.01,` + zones + `,"budget":1,"curve":{"floor_frac":0.1,"scale":1},"target":"domains"}`
	uniform := `{"model":{"protocol":"pbft","n":7},"p":0.01,` + zones + `}`
	refused := `{"model":{"protocol":"raft","n":5},"fleet":[{},{},{},{},{"p_crash":2}]}`
	sampled := `{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"importance","samples":2000,"seed":3}`
	batch := func(i int) string {
		return `{"items":[{"analyze":` + churn(i) + `},{"analyze":` + churn(i) + `},{"analyze":` + string(uniqueHotBody(i)) +
			`},{"tail":` + tail(churn(i+1), `"event":"unsafe"`) + `},{"optimize":` + optimize(1+float64(i)) +
			`},{"sweep":{"protocol":"raft","ns":[3,5],"ps":[0.01]}},{"analyze":` + refused + `},{}]}`
	}
	var out []lifetimeRequest
	for i := 0; i < 3; i++ {
		out = append(out,
			lifetimeRequest{"/v1/analyze", churn(i)},
			lifetimeRequest{"/v1/analyze", string(uniqueColdBody(i))},
			lifetimeRequest{"/v1/analyze", tail(string(uniqueHotBody(i)), `"debug":true`)},
			lifetimeRequest{"/v1/tail", tail(churn(i), `"event":"not_live"`)},
			lifetimeRequest{"/v1/optimize", optimize(2 + float64(i))},
			lifetimeRequest{"/v1/batch", batch(i)},
		)
	}
	return append(out,
		lifetimeRequest{"/v1/analyze", string(hotBody)},
		lifetimeRequest{"/v1/analyze", uniform},
		lifetimeRequest{"/v1/analyze", refused},
		lifetimeRequest{"/v1/tail", sampled},
		lifetimeRequest{"/v1/tail", tail(uniform, `"event":"bogus"`)},
		lifetimeRequest{"/v1/optimize", domainsOpt},
	)
}

// normalized is a response body without what legitimately differs between
// a server that has seen the query and one that has not: the cached flags
// and the debug block (timings, request ID, verdict).
func normalized(body []byte) any {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return "not JSON: " + string(body)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "cached")
			delete(v, "debug")
			for _, c := range v {
				strip(c)
			}
		case []any:
			for _, c := range v {
				strip(c)
			}
		}
	}
	strip(v)
	return v
}

// TestScratchLifetime: request scratch is pooled, so a request must leave
// nothing behind that the next one could overwrite. One server takes an
// interleaving of analyze, batch, tail and optimize requests from four
// clients at once — repeats give L1 hits, and two clients sending the same
// sequence in step give coalesced waiters — and every response body, every
// stored L1 body and every /v1/traces entry must be what a fresh server
// answers for the same request. Under -race (as CI runs it) a scratch
// reused while still read is also a reported race.
func TestScratchLifetime(t *testing.T) {
	reqs := lifetimeRequests()
	fresh := make([][]byte, len(reqs))
	freshStatus := make([]int, len(reqs))
	for i, rq := range reqs {
		rec := serve(New(Options{}).Handler(), http.MethodPost, rq.path, rq.body)
		fresh[i], freshStatus[i] = rec.Body.Bytes(), rec.Code
	}

	// Each engine run holds its query a little longer, so that the two
	// clients in step coalesce on each other's misses.
	srv := New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2, TraceBuffer: 4096, TraceSample: 1,
		AnalyzeFunc: func(q *core.Query) (core.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return core.AnalyzeQuery(q), nil
		}})
	h := srv.Handler()
	const clients, rounds = 4, 2
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, clients*rounds*len(reqs))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for k := range reqs {
					// Clients 0 and 1 walk the list in step; 2 and 3 walk
					// it from elsewhere and backwards.
					i := k
					switch c {
					case 2:
						i = (k + len(reqs)/2) % len(reqs)
					case 3:
						i = len(reqs) - 1 - k
					}
					rec := serve(h, http.MethodPost, reqs[i].path, reqs[i].body)
					if rec.Code != freshStatus[i] || !reflect.DeepEqual(normalized(rec.Body.Bytes()), normalized(fresh[i])) {
						errs <- fmt.Sprintf("%s %.80s…: status %d\n%s\nfresh server: status %d\n%s",
							reqs[i].path, reqs[i].body, rec.Code, rec.Body, freshStatus[i], fresh[i])
					}
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := srv.cache.Stats(); st.Hits == 0 || st.Coalesced == 0 {
		t.Errorf("analyze cache over the run: %d hits, %d misses, %d coalesced; want hits and coalesced waiters", st.Hits, st.Misses, st.Coalesced)
	}

	// Flight recorder: every request of the run left one trace, and the
	// traces' endpoints, statuses and errors are the fresh answers'.
	type outcome struct {
		endpoint string
		status   int
		err      string
	}
	var want, got []outcome
	for i, rq := range reqs {
		var body errorBody
		if freshStatus[i] != http.StatusOK {
			if err := json.Unmarshal(fresh[i], &body); err != nil {
				t.Fatal(err)
			}
		}
		o := outcome{strings.TrimPrefix(rq.path, "/v1/"), freshStatus[i], body.Error}
		for n := 0; n < clients*rounds; n++ {
			want = append(want, o)
		}
	}
	var traces TracesResponse
	if err := json.Unmarshal(serve(h, http.MethodGet, "/v1/traces?limit=1000", "").Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces.Traces {
		got = append(got, outcome{tr.Endpoint, tr.Status, tr.Error})
	}
	sortOutcomes := func(s []outcome) {
		sort.Slice(s, func(i, j int) bool { return fmt.Sprint(s[i]) < fmt.Sprint(s[j]) })
	}
	sortOutcomes(want)
	sortOutcomes(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/traces holds the outcomes\n%v\nthe run's requests had\n%v", got, want)
	}

	// Stored L1 bodies: a plain repeat of an analyze query is answered from
	// the body stored with its entry, which must be the fresh server's own
	// hit body, byte for byte.
	for _, rq := range reqs {
		if rq.path != "/v1/analyze" || strings.Contains(rq.body, `"debug"`) || strings.Contains(rq.body, `"p_crash":2`) {
			continue
		}
		freshSrv := New(Options{}).Handler()
		serve(freshSrv, http.MethodPost, rq.path, rq.body)
		want := serve(freshSrv, http.MethodPost, rq.path, rq.body).Body.Bytes()
		if got := serve(h, http.MethodPost, rq.path, rq.body).Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%.80s…: hit body\n%s\nfresh server's hit body\n%s", rq.body, got, want)
		}
		if e := entryFor(t, srv, rq.body); e.body.Load() == nil || !bytes.Equal(*e.body.Load(), want) {
			t.Errorf("%.80s…: the stored L1 body is not the fresh server's hit body", rq.body)
		}
	}
}

// TestScratchRetention: both scratch pools keep a scratch only while it is
// small (scratch.reset). A batch body of 15 KB — well under the pooled body
// limit — can resolve 256 uniform fleets of 1024 nodes; the scratch it
// leaves behind must not be pooled, while one large fleet and
// solver_mix's batch of 16 small analyze items are.
func TestScratchRetention(t *testing.T) {
	srv := New(Options{Workers: 1})
	batch := func(items, n int) []byte {
		item := fmt.Sprintf(`{"analyze":{"model":{"protocol":"pbft","n":%d},"p":0.001}}`, n)
		return []byte(`{"items":[` + strings.TrimSuffix(strings.Repeat(item+",", items), ",") + `]}`)
	}
	for _, tc := range []struct {
		name     string
		items, n int
		pooled   bool
	}{
		{"one large fleet", 1, 1024, true},
		{"solver_mix batch", 16, 9, true},
		{"two large fleets", 2, 1024, false},
		{"large-fleet batch", 256, 1024, false},
		{"17 small slots", 17, 4, false},
	} {
		var p pooled[BatchRequest]
		body := batch(tc.items, tc.n)
		if len(body) > maxPooledBody {
			t.Fatalf("%s: a %d-byte body is over the pooled body limit already", tc.name, len(body))
		}
		if err := decodeRequest(body, &p.req); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.batchTraced(p.req, &p.sc, nil)
		if err != nil || resp.Items[0].Error != "" {
			t.Fatalf("%s: %v %+v", tc.name, err, resp.Items[0])
		}
		if got := p.sc.reset(); got != tc.pooled || p.sc.used != 0 {
			t.Errorf("%s: reset() = %v with %d slots in use, want %v and 0", tc.name, got, p.sc.used, tc.pooled)
		}
	}
}
