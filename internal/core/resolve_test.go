package core_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// analyzeBody is an analyze body of n named nodes, spread round-robin over
// zones when there are any. i moves one value — the first zone's shock, or
// the first node's p_crash without zones — so every i is a cache miss.
func analyzeBody(n, zones, i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"model":{"protocol":"raft","n":%d},"fleet":[`, n)
	for k := 0; k < n; k++ {
		pCrash := 0.002 + 0.0001*float64(k)
		if k == 0 && zones == 0 {
			pCrash += 1e-7 * float64(i)
		}
		fmt.Fprintf(&b, `{"name":"n%d","p_crash":%g,"p_byz":0.001`, k, pCrash)
		if zones > 0 {
			fmt.Fprintf(&b, `,"domain":"zone-%d"`, k%zones)
		}
		b.WriteString("},")
	}
	s := strings.TrimSuffix(b.String(), ",") + "]"
	for z := 0; z < zones; z++ {
		sep := ","
		if z == 0 {
			sep = `,"domains":[`
		}
		shock := 0.001 + 0.002*float64(z)
		if z == 0 {
			shock += 1e-7 * float64(i)
		}
		s += fmt.Sprintf(`%s{"name":"zone-%d","shock":%g,"crash_mult":4}`, sep, z, shock)
	}
	if zones > 0 {
		s += "]"
	}
	return s + "}"
}

// TestOneResolvePerRequest: a served analyze request resolves its query's
// layout once — the work bound, the fingerprint and the engine read that
// one layout — on a miss at domain_churn's and cold_large's shapes, on an
// L1 hit and on a correlated miss through /v1/tail. A byte-identical
// repeat of a body already answered as a plain hit resolves nothing: the
// body index answers it, so 20 identical requests resolve twice (the
// miss, then the first hit), while 20 spellings of one query that differ
// only in trailing whitespace are 20 L1 hits that each resolve. Profiles
// are checked once too, by the node loop that builds the fleet: neither
// Query.Resolve (TestQueryResolveSkipsProfiles) nor the engine's
// AnalyzeQuery, which cannot fail, checks them again.
func TestOneResolvePerRequest(t *testing.T) {
	h := service.New(service.Options{}).Handler()
	const requests = 20
	for _, tc := range []struct {
		name, path string
		body       func(i int) string
		resolves   int64
	}{
		{"domain_churn miss", "/v1/analyze", func(i int) string { return analyzeBody(48, 4, i) }, requests},
		{"cold_large miss", "/v1/analyze", func(i int) string { return analyzeBody(256, 0, i) }, requests},
		{"hit", "/v1/analyze", func(int) string { return analyzeBody(9, 0, 0) }, 2},
		{"whitespace-variant hit", "/v1/analyze", func(i int) string { return analyzeBody(9, 0, 0) + strings.Repeat(" ", i+1) }, requests},
		{"tail", "/v1/tail", func(i int) string {
			return strings.TrimSuffix(analyzeBody(48, 4, i), "}") + `,"event":"not_live"}`
		}, requests},
	} {
		before := core.LayoutResolves()
		for i := 0; i < requests; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body(i))))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
		}
		if got := core.LayoutResolves() - before; got != tc.resolves {
			t.Errorf("%s: %d requests resolved %d layouts, want %d", tc.name, requests, got, tc.resolves)
		}
	}
}
