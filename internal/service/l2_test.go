package service

import (
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/qcache"
)

// fleetMember is one in-process probconsd-shaped member of a two-node
// fleet: a Server wired to a PeerClient, served over a real loopback
// listener by a PeerServer — the same topology two daemon processes form.
type fleetMember struct {
	srv    *Server
	client *qcache.PeerClient
	addr   string
}

// newFleet builds n peered members sharing one engine-call counter, so a
// test can pin exactly how many times the fleet touched the engine.
func newFleet(t *testing.T, n int, calls *atomic.Int64) []*fleetMember {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	pool := core.NewEvaluatorPool()
	members := make([]*fleetMember, n)
	for i := range members {
		client, err := qcache.NewPeerClient(addrs[i], addrs, qcache.PeerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Options{
			CacheCapacity: 256, CacheShards: 4, Workers: 4,
			L2: client,
			AnalyzeFunc: func(q *core.Query) (core.Result, error) {
				calls.Add(1)
				return pool.AnalyzeQuery(q), nil
			},
		})
		peerSrv := qcache.NewPeerServer(srv)
		ln := lns[i]
		go peerSrv.Serve(ln)
		t.Cleanup(func() { peerSrv.Close(); client.Close() })
		members[i] = &fleetMember{srv: srv, client: client, addr: addrs[i]}
	}
	return members
}

func analyzeReq(n int, p float64) AnalyzeRequest {
	return AnalyzeRequest{Model: ModelSpec{Protocol: "raft", N: n}, P: &p}
}

// TestFleetSingleflight is the fleet-wide miss-storm pin: K concurrent
// identical misses on each of two peered members must reach the engine
// exactly once in total — local flights coalesce in each L1 and the
// non-owner's single flight rides the owner's via EXEC. Run under -race.
func TestFleetSingleflight(t *testing.T) {
	var calls atomic.Int64
	members := newFleet(t, 2, &calls)
	req := analyzeReq(7, 0.013)

	const k = 8
	var wg sync.WaitGroup
	for _, m := range members {
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(s *Server) {
				defer wg.Done()
				resp, err := s.Analyze(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.SafeAndLive <= 0 || resp.SafeAndLive >= 1 {
					t.Errorf("implausible result %v", resp.SafeAndLive)
				}
			}(m.srv)
		}
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fleet-wide miss storm made %d engine calls, want exactly 1", got)
	}
}

// TestCrossMemberRepeatZeroEngineCalls pins the headline behavior: a
// query answered on one member is served to the other from the peer tier
// with zero additional engine work, and the peer-served response carries
// the same payload.
func TestCrossMemberRepeatZeroEngineCalls(t *testing.T) {
	var calls atomic.Int64
	members := newFleet(t, 2, &calls)
	a, b := members[0], members[1]

	// Pick a query whose fingerprint member A owns, so A computes it
	// locally and B's repeat must cross the wire to A.
	var req AnalyzeRequest
	var first AnalyzeResponse
	found := false
	for n := 3; n <= 41 && !found; n += 2 {
		r := analyzeReq(n, 0.01)
		fleet, m, domains, err := r.Query()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := core.FleetModelDomainsFingerprint(fleet, m, domains)
		if err != nil {
			t.Fatal(err)
		}
		if a.client.Owner(fp.String()) == a.addr {
			req, found = r, true
		}
	}
	if !found {
		t.Fatal("no A-owned query found")
	}

	var err error
	first, err = a.srv.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("first query made %d engine calls, want 1", got)
	}

	second, err := b.srv.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cross-member repeat raised engine calls to %d, want still 1", got)
	}
	if !second.Cached {
		t.Fatal("peer-served response not marked cached")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint drifted across members: %s != %s", second.Fingerprint, first.Fingerprint)
	}
	// Identical payload modulo the Cached marker.
	first.Cached, second.Cached = false, false
	fb, _ := json.Marshal(first)
	sb, _ := json.Marshal(second)
	if !bytes.Equal(fb, sb) {
		t.Fatalf("peer-served payload differs:\n%s\n%s", fb, sb)
	}

	// The tier actually served it: A answered one EXEC, B recorded a hit.
	if n := a.srv.m.l2ServeExecOK.Load(); n != 1 {
		t.Fatalf("owner served %d EXECs, want 1", n)
	}
	if n := b.srv.m.l2Hits.Load(); n != 1 {
		t.Fatalf("non-owner recorded %d l2 hits, want 1", n)
	}
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
