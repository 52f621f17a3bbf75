package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
)

// domainsBody is a 9-node, 3-zone analyze request used across the tests:
// an explicit heterogeneous fleet with per-node zone membership.
const domainsBody = `{"model":{"protocol":"raft","n":9},
  "fleet":[
    {"p_crash":0.010,"domain":"za"},{"p_crash":0.015,"domain":"za"},{"p_crash":0.020,"domain":"za"},
    {"p_crash":0.040,"domain":"zb"},{"p_crash":0.050,"domain":"zb"},{"p_crash":0.060,"domain":"zb"},
    {"p_crash":0.005,"domain":"zc"},{"p_crash":0.008,"domain":"zc"},{"p_crash":0.012,"domain":"zc"}],
  "domains":[
    {"name":"za","shock":0.02,"crash_mult":12},
    {"name":"zb","shock":0.005,"crash_mult":8},
    {"name":"zc","shock":0.05,"crash_mult":20}]}`

// domainsQuery mirrors domainsBody as engine inputs.
func domainsQuery() (core.Fleet, core.CountModel, core.DomainSet) {
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(domainsBody), &req); err != nil {
		panic(err)
	}
	fleet, m, domains, err := req.Query()
	if err != nil {
		panic(err)
	}
	return fleet, m, domains
}

func TestAnalyzeDomainsGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp, b := postJSON(t, ts.URL+"/v1/analyze", domainsBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got AnalyzeResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	fleet, m, domains := domainsQuery()
	want, err := core.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.SafeAndLive-want.SafeAndLive) > 1e-12 ||
		math.Abs(got.Safe-want.Safe) > 1e-12 ||
		math.Abs(got.Live-want.Live) > 1e-12 {
		t.Fatalf("service %+v != engine %+v", got, want)
	}

	// The same fleet without the domains block is a different analysis and
	// must neither share the fingerprint nor the (shock-eroded) result.
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(domainsBody), &req); err != nil {
		t.Fatal(err)
	}
	req.Domains = nil
	for i := range req.Fleet {
		req.Fleet[i].Domain = ""
	}
	plainBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, b = postJSON(t, ts.URL+"/v1/analyze", string(plainBody))
	var plain AnalyzeResponse
	if err := json.Unmarshal(b, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint == got.Fingerprint {
		t.Fatal("domained and domain-free queries must not share a cache key")
	}
	if plain.SafeAndLive <= got.SafeAndLive {
		t.Fatalf("shocks should erode reliability: independent %v <= domained %v",
			plain.SafeAndLive, got.SafeAndLive)
	}
}

func TestAnalyzeDomainsCacheCanonicalization(t *testing.T) {
	_, ts := newTestServer(t)
	_, b := postJSON(t, ts.URL+"/v1/analyze", domainsBody)
	var first AnalyzeResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first domained query must be a miss")
	}

	// Rename the zones and reorder the domains block: same analysis, so
	// the canonical fingerprint must make it an L1 hit.
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(domainsBody), &req); err != nil {
		t.Fatal(err)
	}
	rename := map[string]string{"za": "rack-a", "zb": "rack-b", "zc": "rack-c"}
	for i := range req.Fleet {
		req.Fleet[i].Domain = rename[req.Fleet[i].Domain]
	}
	for i := range req.Domains {
		req.Domains[i].Name = rename[req.Domains[i].Name]
	}
	req.Domains[0], req.Domains[2] = req.Domains[2], req.Domains[0]
	renamed, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, b = postJSON(t, ts.URL+"/v1/analyze", string(renamed))
	var second AnalyzeResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Fingerprint != first.Fingerprint {
		t.Fatal("renamed+reordered domain layout must hit the same cache entry")
	}

	// A different shock probability is a different analysis: cache miss.
	if err := json.Unmarshal([]byte(domainsBody), &req); err != nil {
		t.Fatal(err)
	}
	req.Domains[0].Shock = 0.021
	hotter, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, b = postJSON(t, ts.URL+"/v1/analyze", string(hotter))
	var third AnalyzeResponse
	if err := json.Unmarshal(b, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Fingerprint == first.Fingerprint {
		t.Fatal("a changed shock probability must be a distinct cache entry")
	}
}

func TestAnalyzeUniformWithDomainsRoundRobin(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"model":{"protocol":"raft","n":9},"p":0.02,
	  "domains":[{"name":"z1","shock":0.001,"crash_mult":30},
	             {"name":"z2","shock":0.001,"crash_mult":30},
	             {"name":"z3","shock":0.001,"crash_mult":30}]}`
	resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got AnalyzeResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	fleet := core.UniformCrashFleet(9, 0.02)
	domains := core.DomainSet{
		{Name: "z1", ShockProb: 0.001, CrashMultiplier: 30, ByzMultiplier: 1},
		{Name: "z2", ShockProb: 0.001, CrashMultiplier: 30, ByzMultiplier: 1},
		{Name: "z3", ShockProb: 0.001, CrashMultiplier: 30, ByzMultiplier: 1},
	}
	for i := range fleet {
		fleet[i].Domain = domains[i%3].Name
	}
	want, err := core.AnalyzeDomains(fleet, core.NewRaft(9), domains)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.SafeAndLive-want.SafeAndLive) > 1e-12 {
		t.Fatalf("round-robin uniform query: service %v != engine %v", got.SafeAndLive, want.SafeAndLive)
	}
}

func TestAnalyzeDomainsRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []string{
		// Unresolved membership.
		`{"model":{"protocol":"raft","n":3},
		  "fleet":[{"p_crash":0.01,"domain":"ghost"},{"p_crash":0.01},{"p_crash":0.01}]}`,
		// Shock out of range.
		`{"model":{"protocol":"raft","n":3},"p":0.01,
		  "domains":[{"name":"z","shock":1.5}]}`,
		// Negative multiplier.
		`{"model":{"protocol":"raft","n":3},"p":0.01,
		  "domains":[{"name":"z","shock":0.1,"crash_mult":-2}]}`,
		// Nameless domain.
		`{"model":{"protocol":"raft","n":3},"p":0.01,
		  "domains":[{"shock":0.1}]}`,
		// Duplicate names.
		`{"model":{"protocol":"raft","n":3},"p":0.01,
		  "domains":[{"name":"z","shock":0.1},{"name":"z","shock":0.2}]}`,
		// Too many domains.
		`{"model":{"protocol":"raft","n":3},"p":0.01,"domains":[` + manyDomains(17) + `]}`,
	}
	for _, body := range bad {
		resp, b := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.60s…: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

func manyDomains(n int) string {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"name":"d%d","shock":0.1}`, i)
	}
	return buf.String()
}

func TestSweepWithDomains(t *testing.T) {
	srv, _ := newTestServer(t)
	req := SweepRequest{
		Protocol: "raft",
		Ns:       []int{3, 9},
		Ps:       []float64{0.01, 0.04},
		Domains: []DomainSpec{
			{Name: "z1", Shock: 0.001, CrashMult: f64(40)},
			{Name: "z2", Shock: 0.001, CrashMult: f64(40)},
			{Name: "z3", Shock: 0.001, CrashMult: f64(40)},
		},
	}
	var buf bytes.Buffer
	if err := srv.Sweep(context.Background(), req, &buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []SweepLine
	for sc.Scan() {
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("cell n=%d p=%g: %s", line.N, line.P, line.Error)
		}
		lines = append(lines, line)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	// Every cell must match the engine under the same round-robin layout.
	domains := core.DomainSet{
		{Name: "z1", ShockProb: 0.001, CrashMultiplier: 40, ByzMultiplier: 1},
		{Name: "z2", ShockProb: 0.001, CrashMultiplier: 40, ByzMultiplier: 1},
		{Name: "z3", ShockProb: 0.001, CrashMultiplier: 40, ByzMultiplier: 1},
	}
	for _, line := range lines {
		fleet := core.UniformCrashFleet(line.N, line.P)
		for i := range fleet {
			fleet[i].Domain = domains[i%3].Name
		}
		want, err := core.AnalyzeDomains(fleet, core.NewRaft(line.N), domains)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(line.SafeAndLive-want.SafeAndLive) > 1e-12 {
			t.Fatalf("cell n=%d p=%g: sweep %v != engine %v", line.N, line.P, line.SafeAndLive, want.SafeAndLive)
		}
	}
}

// TestSweepDomainsCrossCellCache pins the cache interaction the domained
// sweep depends on: cells at different N share the same domains block but
// not the same membership layout (node i joins domain i mod D, so n=3,
// n=5, and n=9 distribute differently), and each cell's L1 key is the
// canonical fingerprint of its own analyzed fleet. A wrong key — one that
// ignored membership — would let the n=3 cell's Result answer the n=5
// cell. The test runs a varying-N grid twice: every cell must match the
// engine under that cell's own round-robin layout, and the repeat sweep
// must reproduce the first byte-for-byte (pure cache hits, no poisoning).
func TestSweepDomainsCrossCellCache(t *testing.T) {
	srv, ts := newTestServer(t)
	req := SweepRequest{
		Protocol: "raft",
		Ns:       []int{3, 5, 9},
		Ps:       []float64{0.01, 0.03},
		Domains: []DomainSpec{
			{Name: "z1", Shock: 0.002, CrashMult: f64(25)},
			{Name: "z2", Shock: 0.004, CrashMult: f64(15)},
			{Name: "z3", Shock: 0.001, CrashMult: f64(40)},
		},
	}
	domains := core.DomainSet{
		{Name: "z1", ShockProb: 0.002, CrashMultiplier: 25, ByzMultiplier: 1},
		{Name: "z2", ShockProb: 0.004, CrashMultiplier: 15, ByzMultiplier: 1},
		{Name: "z3", ShockProb: 0.001, CrashMultiplier: 40, ByzMultiplier: 1},
	}
	sweep := func() []SweepLine {
		var buf bytes.Buffer
		if err := srv.Sweep(context.Background(), req, &buf); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&buf)
		var lines []SweepLine
		for sc.Scan() {
			var line SweepLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if line.Error != "" {
				t.Fatalf("cell n=%d p=%g: %s", line.N, line.P, line.Error)
			}
			lines = append(lines, line)
		}
		return lines
	}
	first := sweep()
	if len(first) != 6 {
		t.Fatalf("got %d lines, want 6", len(first))
	}
	for _, line := range first {
		fleet := core.UniformCrashFleet(line.N, line.P)
		for i := range fleet {
			fleet[i].Domain = domains[i%3].Name
		}
		want, err := core.AnalyzeDomains(fleet, core.NewRaft(line.N), domains)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(line.SafeAndLive-want.SafeAndLive) > 1e-12 ||
			math.Abs(line.Safe-want.Safe) > 1e-12 ||
			math.Abs(line.Live-want.Live) > 1e-12 {
			t.Fatalf("cell n=%d p=%g: sweep %+v != engine %+v", line.N, line.P, line, want)
		}
	}
	second := sweep()
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("repeat sweep cell %d changed: %+v != %+v", i, second[i], first[i])
		}
	}

	// The cell's cache key is the fingerprint of its analyzed membership:
	// an equivalent /v1/analyze query (uniform p spread round-robin over
	// the same domains) must hit the entry the sweep populated and carry
	// the canonical fleet+model+domains fingerprint.
	fleet := core.UniformCrashFleet(5, 0.03)
	for i := range fleet {
		fleet[i].Domain = domains[i%3].Name
	}
	fp, err := core.FleetModelDomainsFingerprint(fleet, core.NewRaft(5), domains)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"model":{"protocol":"raft","n":5},"p":0.03,
	  "domains":[{"name":"z1","shock":0.002,"crash_mult":25},
	             {"name":"z2","shock":0.004,"crash_mult":15},
	             {"name":"z3","shock":0.001,"crash_mult":40}]}`
	_, b := postJSON(t, ts.URL+"/v1/analyze", body)
	var got AnalyzeResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("analyze of a swept cell must hit the cache entry the sweep populated")
	}
	if got.Fingerprint != fp.String() {
		t.Fatalf("cell fingerprint %s != canonical membership fingerprint %s", got.Fingerprint, fp.String())
	}
}

func TestSweepDomainsValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	req := SweepRequest{
		Protocol: "raft",
		Ns:       []int{3},
		Ps:       []float64{0.01},
		Domains:  []DomainSpec{{Name: "z", Shock: 2}},
	}
	var buf bytes.Buffer
	err := srv.Sweep(context.Background(), req, &buf)
	if err == nil || !isClientError(err) {
		t.Fatalf("invalid sweep domains: err = %v, want client error", err)
	}
}

func f64(v float64) *float64 { return &v }
