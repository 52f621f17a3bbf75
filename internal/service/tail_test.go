package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// refTailPred and refMinEventCount are the event predicates and the
// minimal-count scan eventRegion and the closed-form minEventCount
// replaced, kept as their oracles: the event through the model's Safe /
// Live per cell, and every achievable (c, b) scanned for the smallest
// c + b that triggers it.
func refTailPred(m core.CountModel, event string) func(c, b int) bool {
	switch event {
	case EventUnsafe:
		return func(c, b int) bool { return !m.Safe(c, b) }
	case EventNotLive:
		return func(c, b int) bool { return !m.Live(c, b) }
	default:
		return func(c, b int) bool { return !(m.Safe(c, b) && m.Live(c, b)) }
	}
}

func refMinEventCount(fleet core.Fleet, pred func(c, b int) bool) int {
	var nCrash, nByz, nEither int
	for _, node := range fleet {
		pc, pb := node.Profile.PCrash > 0, node.Profile.PByz > 0
		if pc {
			nCrash++
		}
		if pb {
			nByz++
		}
		if pc || pb {
			nEither++
		}
	}
	n := len(fleet)
	best := -1
	for c := 0; c <= n; c++ {
		for b := 0; b+c <= n; b++ {
			if c > nCrash || b > nByz || c+b > nEither {
				continue
			}
			if pred(c, b) && (best == -1 || c+b < best) {
				best = c + b
			}
		}
	}
	return best
}

// TestMinEventCountMatchesRef pins the event regions and the closed-form
// minimal count to the predicate closures and the O(n²) scan, on 20 000
// random fleets × the three events: Raft and PBFT with every quorum drawn
// from [1, n] (so empty, vacuous and β >= κ regions all occur), fleets
// mixing zero-mass, crash-only, Byzantine-only and certainly-failing nodes.
func TestMinEventCountMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	profiles := []func() faultcurve.Profile{
		func() faultcurve.Profile { return faultcurve.Profile{} },
		func() faultcurve.Profile { return faultcurve.Profile{PCrash: 0.1 * rng.Float64()} },
		func() faultcurve.Profile { return faultcurve.Profile{PByz: 0.1 * rng.Float64()} },
		func() faultcurve.Profile {
			return faultcurve.Profile{PCrash: 0.1 * rng.Float64(), PByz: 0.01 * rng.Float64()}
		},
		func() faultcurve.Profile { return faultcurve.Profile{PCrash: 1} },
	}
	for iter := 0; iter < 20_000; iter++ {
		n := 1 + rng.Intn(16)
		fleet := make(core.Fleet, n)
		kinds := 1 + rng.Intn(len(profiles))
		for i := range fleet {
			fleet[i].Profile = profiles[rng.Intn(kinds)]()
		}
		q := func() int { return 1 + rng.Intn(n) }
		var m core.CountModel = core.Raft{NNodes: n, QPer: q(), QVC: q()}
		if iter%2 == 1 {
			m = core.PBFT{NNodes: n, QEq: q(), QPer: q(), QVC: q(), QVCT: q()}
		}
		for _, event := range []string{EventNotLive, EventUnsafe, EventNotOK} {
			r, ref := eventRegion(m, event), refTailPred(m, event)
			for c := 0; c <= n; c++ {
				for b := 0; c+b <= n; b++ {
					if r.Holds(c, b) != !ref(c, b) {
						t.Fatalf("%s %s: region %+v at (%d, %d) disagrees with the predicate", m.Name(), event, r, c, b)
					}
				}
			}
			if got, want := minEventCount(fleet, r), refMinEventCount(fleet, ref); got != want {
				t.Fatalf("%s %s fleet %s: minEventCount %d, scan %d", m.Name(), event, fmt.Sprint(fleet.Profiles()), got, want)
			}
		}
	}
}

// TestTailDeepTailAcceptance is the PR's acceptance criterion: a ~1e-10
// deep-tail query answered within a configured work bound, with the
// estimator's relative confidence interval in the response. The exact
// engine supplies ground truth; the work-bounded importance path must
// agree within its own reported error bar.
func TestTailDeepTailAcceptance(t *testing.T) {
	_, ts := newTestServer(t)
	// Raft N=5 at p=2e-4: P(not live) = P(>=3 crashes) ~ 8e-11.
	exactBody := `{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live"}`
	resp, b := postJSON(t, ts.URL+"/v1/tail", exactBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var exact TailResponse
	if err := json.Unmarshal(b, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Method != MethodExact {
		t.Fatalf("cheap query dispatched to %q, want exact", exact.Method)
	}
	if exact.P <= 1e-11 || exact.P >= 1e-9 {
		t.Fatalf("exact tail %g not in the ~1e-10 regime", exact.P)
	}
	// Ground truth from the engine directly: 1 - Live.
	res, err := core.Analyze(core.UniformCrashFleet(5, 0.0002), core.NewRaft(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exact.P, 1-res.Live; math.Abs(got-want) > 1e-15 {
		t.Fatalf("exact tail %g != engine complement %g", got, want)
	}

	// The same event under a hard work bound: forced to the sampler,
	// samples x n capped by max_work, relative CI reported and sane.
	isBody := `{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"importance","max_work":1000000,"seed":3}`
	resp, b = postJSON(t, ts.URL+"/v1/tail", isBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var is TailResponse
	if err := json.Unmarshal(b, &is); err != nil {
		t.Fatal(err)
	}
	if is.Method != MethodImportance {
		t.Fatalf("forced importance dispatched to %q", is.Method)
	}
	if is.Work > 1000000 {
		t.Fatalf("work %g exceeds the configured bound", is.Work)
	}
	if is.Samples <= 0 || is.Samples > 200000 {
		t.Fatalf("samples = %d, want (0, 200000]", is.Samples)
	}
	if is.RelCI99 <= 0 || is.RelCI99 > 0.5 {
		t.Fatalf("rel_ci99 = %g, want a reported, sub-50%% relative CI", is.RelCI99)
	}
	if is.StdErr <= 0 || is.EffectiveSamples <= 0 {
		t.Fatalf("missing estimator diagnostics: %+v", is)
	}
	// Agreement within 4 reported standard errors.
	if diff := math.Abs(is.P - exact.P); diff > 4*is.StdErr {
		t.Fatalf("importance %g vs exact %g: off by %g > 4 x stderr %g", is.P, exact.P, diff, is.StdErr)
	}
}

// TestTailAutoDispatch checks the dispatch rule: auto goes exact when the
// cost estimate fits max_work and importance when it does not; explicit
// exact over the bound is a 400.
func TestTailAutoDispatch(t *testing.T) {
	srv, _ := newTestServer(t)
	p := 0.001
	auto, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Method != MethodExact {
		t.Fatalf("auto under bound dispatched to %q", auto.Method)
	}
	bounded, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive, MaxWork: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Method != MethodImportance {
		t.Fatalf("auto over bound dispatched to %q", bounded.Method)
	}
	if bounded.Samples != 20 { // max_work / n
		t.Fatalf("samples = %d, want 20 from max_work 100 over 5 nodes", bounded.Samples)
	}
	_, err = srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive, Method: MethodExact, MaxWork: 100})
	if err == nil || !isClientError(err) {
		t.Fatalf("explicit exact over bound: err = %v, want client error", err)
	}
}

// TestTailImpossibleEvent checks that events no achievable configuration
// triggers are answered exactly as 0 without burning the sampler's
// budget: a crash-only Raft fleet can never be unsafe.
func TestTailImpossibleEvent(t *testing.T) {
	srv, _ := newTestServer(t)
	p := 0.01
	for _, method := range []string{MethodAuto, MethodImportance} {
		resp, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventUnsafe, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Method != MethodExact || resp.P != 0 || resp.Work != 0 {
			t.Fatalf("method %s: impossible event answered %+v, want exact 0 at no cost", method, resp)
		}
		if resp.Nines != MaxNines {
			t.Fatalf("impossible event nines = %g, want %d", resp.Nines, MaxNines)
		}
	}
}

// TestTailImportanceMatchesExactWithDomains cross-validates the sampler
// against the exact domain engine on a correlated fleet — the serving
// twin of experiment E5.
func TestTailImportanceMatchesExactWithDomains(t *testing.T) {
	srv, _ := newTestServer(t)
	p := 0.0002
	req := TailRequest{
		Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive,
		Domains: []DomainSpec{
			{Name: "z1", Shock: 1e-4, CrashMult: f64(100)},
			{Name: "z2", Shock: 1e-4, CrashMult: f64(100)},
		},
	}
	exact, err := srv.Tail(req)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Method != MethodExact {
		t.Fatalf("domain query dispatched to %q", exact.Method)
	}
	req.Method = MethodImportance
	req.Samples = 400000
	req.Seed = 5
	is, err := srv.Tail(req)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(is.P - exact.P); diff > 4*is.StdErr {
		t.Fatalf("importance %g vs exact %g: off by %g > 4 x stderr %g", is.P, exact.P, diff, is.StdErr)
	}
	if is.RelCI99 <= 0 {
		t.Fatal("importance response missing rel_ci99")
	}
}

// TestTailCaching checks tail responses cache under the canonical
// fingerprint plus tail parameters: same query hits, different event or
// seed misses, and a permuted fleet spelling of the same deployment hits
// the same entry.
func TestTailCaching(t *testing.T) {
	srv, _ := newTestServer(t)
	p := 0.001
	base := TailRequest{Model: ModelSpec{Protocol: "raft", N: 3}, P: &p, Event: EventNotLive}
	first, err := srv.Tail(base)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	again, err := srv.Tail(base)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical query missed the tail cache")
	}
	if again.P != first.P {
		t.Fatalf("cached answer drifted: %g vs %g", again.P, first.P)
	}
	// The same deployment spelled as an explicit (permuted) fleet shares
	// the canonical fingerprint, hence the cache entry.
	fleet := TailRequest{Model: ModelSpec{Protocol: "raft", N: 3}, Event: EventNotLive,
		Fleet: []NodeSpec{{PCrash: p}, {PCrash: p}, {PCrash: p}}}
	perm, err := srv.Tail(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !perm.Cached || perm.Fingerprint != first.Fingerprint {
		t.Fatalf("permuted spelling did not share the entry: cached=%v fp=%s vs %s",
			perm.Cached, perm.Fingerprint, first.Fingerprint)
	}
	other, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 3}, P: &p, Event: EventNotOK})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("different event hit the cache")
	}
	if st := srv.Stats().TailCache; st.Hits < 2 || st.Misses < 2 {
		t.Fatalf("tail cache stats implausible: %+v", st)
	}
}

// TestTailValidation sweeps the request validation surface: every bad
// body is a 400 with an error message, never a 500.
func TestTailValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"no event", `{"model":{"protocol":"raft","n":5},"p":0.01}`},
		{"bad event", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"melted"}`},
		{"bad method", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","method":"guess"}`},
		{"negative max_work", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","max_work":-1}`},
		{"huge max_work", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","max_work":1e18}`},
		{"negative samples", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","samples":-5}`},
		{"huge samples", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","samples":99000000}`},
		{"samples over bound", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","method":"importance","max_work":100,"samples":1000}`},
		{"no fleet", `{"model":{"protocol":"raft","n":5},"event":"not_live"}`},
		{"bad model", `{"model":{"protocol":"paxos","n":5},"p":0.01,"event":"not_live"}`},
		{"unknown field", `{"model":{"protocol":"raft","n":5},"p":0.01,"event":"not_live","zeal":9}`},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/tail", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "error") {
			t.Errorf("%s: body %s missing error field", tc.name, b)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/tail", `{`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/tail")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", getResp.StatusCode)
	}
}

// TestTailMetrics checks the dispatch counters, latency histograms, and
// request counter reach /metrics with the documented family names.
func TestTailMetrics(t *testing.T) {
	srv, ts := newTestServer(t)
	p := 0.001
	if _, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tail(TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive, MaxWork: 100}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/tail", `{"model":{"protocol":"raft","n":5},"p":0.001,"event":"not_ok"}`)
	var scrape string
	{
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		scrape = sb.String()
	}
	for _, want := range []string{
		`probconsd_tail_dispatch_total{method="exact"}`,
		`probconsd_tail_dispatch_total{method="importance"} 1`,
		`probconsd_tail_seconds_count{method="exact"}`,
		`probconsd_api_requests_total{endpoint="tail"} 1`,
		`probconsd_cache_hits_total{cache="tail"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics scrape missing %q", want)
		}
	}
	if srv.Stats().Requests.Tail != 1 {
		t.Fatalf("requests.tail = %d, want 1 (HTTP only)", srv.Stats().Requests.Tail)
	}
}

// TestTailDeterminism pins that a repeated importance query (same seed)
// returns bit-identical estimates — the property the cache and the
// campaign's pinned-seed reports rely on.
func TestTailDeterminism(t *testing.T) {
	p := 0.0005
	req := TailRequest{Model: ModelSpec{Protocol: "pbft", N: 4}, P: &p, Event: EventNotOK,
		Method: MethodImportance, Samples: 50000, Seed: 11}
	a, err := New(Options{Workers: 2}).Tail(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Workers: 2}).Tail(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P || a.StdErr != b.StdErr || a.EffectiveSamples != b.EffectiveSamples {
		t.Fatalf("importance not deterministic: %+v vs %+v", a, b)
	}
	if a.RelCI99 != dist.Z99*a.StdErr/a.P {
		t.Fatalf("rel_ci99 %g inconsistent with z99 * stderr / p", a.RelCI99)
	}
}

// TestTailAliasedSeedsShareEntry pins the importance key to the stream a
// seed selects, not to its spelling: math/rand reduces a seed modulo
// 2^31 − 1, so 1, 2^31 and −(2^31 − 2) draw the same numbers. The later
// spellings are cache hits with the first one's p, and a batch holding
// two of them runs one job.
func TestTailAliasedSeedsShareEntry(t *testing.T) {
	srv, _ := newTestServer(t)
	p := 0.0005
	req := func(seed int64) TailRequest {
		return TailRequest{Model: ModelSpec{Protocol: "raft", N: 5}, P: &p, Event: EventNotLive,
			Method: MethodImportance, Samples: 2000, Seed: seed}
	}
	first, err := srv.Tail(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.P <= 0 {
		t.Fatalf("first answer %+v, want an uncached nonzero estimate", first)
	}
	for _, seed := range []int64{1 << 31, -(1<<31 - 2)} {
		got, err := srv.Tail(req(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Cached || got.P != first.P {
			t.Errorf("seed %d: cached=%v p=%v, want a hit with p=%v", seed, got.Cached, got.P, first.P)
		}
	}
	// Uncached, the aliased seed computes the same estimate.
	fresh, err := New(Options{}).Tail(req(1 << 31))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.P != first.P || fresh.StdErr != first.StdErr {
		t.Errorf("seed 2^31 on a fresh server: %+v, want p=%v std_err=%v", fresh, first.P, first.StdErr)
	}

	a, b := req(7), req(7+(1<<31-1))
	resp, err := New(Options{}).Batch(BatchRequest{Items: []BatchItem{{Tail: &a}, {Tail: &b}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Distinct != 1 || resp.Deduped != 1 {
		t.Fatalf("aliased batch: distinct=%d deduped=%d, want 1/1", resp.Distinct, resp.Deduped)
	}
	if resp.Items[0].Tail == nil || resp.Items[1].Tail == nil || resp.Items[0].Tail.P != resp.Items[1].Tail.P {
		t.Fatalf("aliased batch items answered differently: %+v", resp.Items)
	}
}
