package service

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// indexLen is how many bodies srv's index maps.
func indexLen(srv *Server) int {
	srv.index.keys.mu.RLock()
	defer srv.index.keys.mu.RUnlock()
	return len(srv.index.keys.m)
}

// l1Outcomes is how many lookups the analyze cache has counted: hits,
// misses and coalesced waits.
func l1Outcomes(srv *Server) int64 {
	st := srv.cache.Stats()
	return st.Hits + st.Misses + st.Coalesced
}

// TestIndexNeverAnswersDebug: a debugged body is never answered with a
// stored body, so it never enters the index, and every repeat gets its
// own debug block.
func TestIndexNeverAnswersDebug(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	const q = `{"model":{"protocol":"raft","n":5},"p":0.01,"debug":true}`
	for i := 0; i < 4; i++ {
		resp := decodeAnalyzeBody(t, serve(h, http.MethodPost, "/v1/analyze", q).Body.Bytes())
		if resp.Debug == nil || resp.Debug.RequestID == "" {
			t.Fatalf("debugged POST %d answered without its debug block: %+v", i+1, resp)
		}
	}
	if n, got := indexLen(srv), srv.m.indexHits.Load(); n != 0 || got != 0 {
		t.Fatalf("after four debugged repeats the index maps %d bodies and answered %d, want 0 and 0", n, got)
	}
}

// TestIndexNeverHoldsRefusedBodies: a body that is malformed, refused or
// over the limit is answered with its error every time and never indexed.
func TestIndexNeverHoldsRefusedBodies(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"model":{"protocol":"raft","n":3},"p":`, http.StatusBadRequest},
		{"trailing data", `{"model":{"protocol":"raft","n":3},"p":0.01} {}`, http.StatusBadRequest},
		{"out of range", `{"model":{"protocol":"raft","n":3},"p":2}`, http.StatusBadRequest},
		{"oversized", strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			rec := serve(h, http.MethodPost, "/v1/analyze", tc.body)
			if rec.Code != tc.status {
				t.Fatalf("%s: POST %d: status %d, want %d: %s", tc.name, i+1, rec.Code, tc.status, rec.Body)
			}
			if i == 0 {
				first = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("%s: POST %d answered\n%s\nafter\n%s", tc.name, i+1, rec.Body, first)
			}
		}
	}
	if n, got, outcomes := indexLen(srv), srv.m.indexHits.Load(), l1Outcomes(srv); n != 0 || got != 0 || outcomes != 0 {
		t.Fatalf("refused bodies: index maps %d, answered %d, L1 counted %d lookups; want 0, 0, 0", n, got, outcomes)
	}
}

// TestIndexAfterEviction is TestEvictedEntryServesRecomputedBytes
// step by step: at capacity 1 a repeat whose entry was evicted is
// recomputed and answered with the new bytes, the repeat after it is
// answered from the recomputed entry, which has no stored body yet, and
// every request counts exactly one L1 outcome.
func TestIndexAfterEviction(t *testing.T) {
	var runs atomic.Int64
	srv := New(Options{CacheCapacity: 1, CacheShards: 1,
		AnalyzeFunc: func(*core.Query) (core.Result, error) {
			p := 1 - 0.125*float64(runs.Add(1))
			return core.Result{Safe: p, Live: p, SafeAndLive: p}, nil
		}})
	h := srv.Handler()
	const a = `{"model":{"protocol":"raft","n":3},"p":0.01}`
	const b = `{"model":{"protocol":"raft","n":3},"p":0.02}`
	for i, step := range []struct {
		body    string
		cached  bool
		safe    float64
		indexed int64 // body index answers this request adds
	}{
		{a, false, 0.875, 0}, // miss
		{a, true, 0.875, 0},  // first hit: stores the body, installs a
		{a, true, 0.875, 1},  // the index answers with the stored body
		{b, false, 0.75, 0},  // capacity 1: evicts a's entry
		{a, false, 0.625, 0}, // indexed, but the entry is gone: recomputed
		{a, true, 0.625, 1},  // indexed, the entry has no stored body yet
		{a, true, 0.625, 1},  // indexed, the body that request stored
	} {
		indexed, outcomes := srv.m.indexHits.Load(), l1Outcomes(srv)
		rec := serve(h, http.MethodPost, "/v1/analyze", step.body)
		resp := decodeAnalyzeBody(t, rec.Body.Bytes())
		if resp.Cached != step.cached || resp.Safe != step.safe || !bytes.Equal(rec.Body.Bytes(), referenceBody(t, resp)) {
			t.Fatalf("request %d: %s\nwant cached %v, safe %v, in the reference encoding", i+1, rec.Body, step.cached, step.safe)
		}
		if got := srv.m.indexHits.Load() - indexed; got != step.indexed {
			t.Errorf("request %d: %d body index answers, want %d", i+1, got, step.indexed)
		}
		if got := l1Outcomes(srv) - outcomes; got != 1 {
			t.Errorf("request %d counted %d L1 outcomes, want exactly 1", i+1, got)
		}
	}
}

// TestIndexBoundedByCapacity: the index never maps more bodies than the
// L1 holds entries; a put that finds it full clears it and keeps the body
// just put.
func TestIndexBoundedByCapacity(t *testing.T) {
	const capacity = 4
	srv := New(Options{CacheCapacity: capacity, CacheShards: 1})
	h := srv.Handler()
	for i := 0; i < 3*capacity; i++ {
		body := string(uniqueHotBody(i))
		for j := 0; j < 3; j++ { // the miss, the first hit, the index's answer
			serve(h, http.MethodPost, "/v1/analyze", body)
			if n := indexLen(srv); n > capacity {
				t.Fatalf("body %d, request %d: the index maps %d bodies, over the capacity %d", i, j+1, n, capacity)
			}
		}
		if got := srv.m.indexHits.Load(); got != int64(i+1) {
			t.Fatalf("after body %d: %d body index answers, want %d", i, got, i+1)
		}
	}
}

// TestIndexConcurrentRepeats: racing repeats of one body (run under
// -race) are all answered with the same bytes, and each counts one L1
// outcome.
func TestIndexConcurrentRepeats(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	const q = `{"model":{"protocol":"pbft","n":10},"p":0.01}`
	want := serve(h, http.MethodPost, "/v1/analyze", q) // the miss
	const racers, each = 16, 25
	bodies := make([][]byte, racers*each)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := 0; r < racers; r++ {
		r := r
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < each; i++ {
				bodies[r*each+i] = serve(h, http.MethodPost, "/v1/analyze", q).Body.Bytes()
			}
		}()
	}
	start.Done()
	done.Wait()
	resp := decodeAnalyzeBody(t, want.Body.Bytes())
	resp.Cached = true
	ref := referenceBody(t, resp)
	for i, b := range bodies {
		if !bytes.Equal(b, ref) {
			t.Fatalf("repeat %d read\n%s\nwant\n%s", i, b, ref)
		}
	}
	if got := l1Outcomes(srv); got != 1+racers*each {
		t.Errorf("%d requests counted %d L1 outcomes", 1+racers*each, got)
	}
	if got := srv.m.indexHits.Load(); got == 0 || got >= racers*each {
		t.Errorf("%d of %d repeats answered through the index; want all but the first hits", got, racers*each)
	}
}
