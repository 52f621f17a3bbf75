package service

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func analyzeReq(n int, p float64) AnalyzeRequest {
	return AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: n}, P: &p}
}

// TestDumpLoadRoundTrip pins cache persistence: dump a warm L1, load it
// into a fresh server whose engine is forbidden, and every response must
// come back byte-identical and cached.
func TestDumpLoadRoundTrip(t *testing.T) {
	warm := New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2})
	reqs := []AnalyzeRequest{analyzeReq(3, 0.01), analyzeReq(5, 0.02), analyzeReq(7, 0.005)}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		resp, err := warm.Analyze(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Cached = false
		b, _ := json.Marshal(resp)
		want[i] = b
	}

	var buf bytes.Buffer
	n, err := warm.DumpCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("dumped %d entries, want %d", n, len(reqs))
	}

	var calls atomic.Int64
	cold := New(Options{
		CacheCapacity: 64, CacheShards: 2, Workers: 2,
		AnalyzeFunc: func(*core.Query) (core.Result, error) {
			calls.Add(1)
			return core.Result{}, nil
		},
	})
	loaded, err := cold.LoadCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d entries, want %d", loaded, n)
	}
	for i, r := range reqs {
		resp, err := cold.Analyze(r)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("request %d not served from the warmed cache", i)
		}
		resp.Cached = false
		got, _ := json.Marshal(resp)
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d payload drifted across dump/load:\n%s\n%s", i, got, want[i])
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("warmed server still made %d engine calls", calls.Load())
	}
}

// TestLoadCacheRejectsCorruption flips bytes in a dump stream: loads must
// stop with an error (keeping the clean prefix), never panic or accept a
// mismatched entry.
func TestLoadCacheRejectsCorruption(t *testing.T) {
	warm := New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2})
	for _, r := range []AnalyzeRequest{analyzeReq(3, 0.01), analyzeReq(5, 0.02)} {
		if _, err := warm.Analyze(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := warm.DumpCache(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Truncation mid-stream.
	cold := New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2})
	if _, err := cold.LoadCache(bytes.NewReader(clean[:len(clean)-3])); err == nil {
		t.Fatal("truncated dump loaded cleanly, want error")
	}

	// Corrupt a payload byte: the entry fails validation.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-2] ^= 0xFF
	cold = New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2})
	if _, err := cold.LoadCache(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted dump loaded cleanly, want error")
	}

	// A clean stream still loads.
	cold = New(Options{CacheCapacity: 64, CacheShards: 2, Workers: 2})
	if n, err := cold.LoadCache(bytes.NewReader(clean)); err != nil || n != 2 {
		t.Fatalf("clean reload: n=%d err=%v", n, err)
	}
}
