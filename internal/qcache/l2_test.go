package qcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// Self returns this member's address; the tests name members by it.
func (c *PeerClient) Self() string { return c.self }

// mapHandler is an in-memory L2Handler for loopback tests.
type mapHandler struct {
	mu      sync.Mutex
	m       map[string][]byte
	execErr error
	execs   int
}

func newMapHandler() *mapHandler { return &mapHandler{m: map[string][]byte{}} }

func (h *mapHandler) L2Get(key string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.m[key]
	return v, ok
}

func (h *mapHandler) L2Exec(key string, payload []byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.execs++
	if h.execErr != nil {
		return nil, h.execErr
	}
	v := append([]byte("exec:"), payload...)
	h.m[key] = v
	return v, nil
}

// startPeer serves h on a loopback listener and returns its address.
func startPeer(t *testing.T, h L2Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewPeerServer(h)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("peer serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// peerKey finds a key the client routes to want (not to self).
func peerKey(t *testing.T, c *PeerClient, want, hint string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%s-%d", hint, i)
		if c.Owner(k) == want {
			return k
		}
	}
	t.Fatalf("no key found owned by %s", want)
	return ""
}

func TestRendezvousAgreementAndSpread(t *testing.T) {
	peers := []string{"10.0.0.1:9085", "10.0.0.2:9085", "10.0.0.3:9085"}
	clients := make([]*PeerClient, len(peers))
	for i, self := range peers {
		c, err := NewPeerClient(self, peers, PeerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		owner := clients[0].Owner(key)
		for _, c := range clients[1:] {
			if got := c.Owner(key); got != owner {
				t.Fatalf("key %q: member %s says owner %s, member %s says %s",
					key, clients[0].Self(), owner, c.Self(), got)
			}
		}
		owned[owner]++
	}
	// Rendezvous over 300 keys should land work on every member; a
	// pathological skew means the hash is broken.
	for _, p := range peers {
		if owned[p] < 30 {
			t.Fatalf("peer %s owns %d of 300 keys; spread %v", p, owned[p], owned)
		}
	}
}

func TestNewPeerClientRejectsBadMembership(t *testing.T) {
	cases := map[string]struct {
		self  string
		peers []string
	}{
		"empty self":      {"", []string{"a:1"}},
		"empty list":      {"a:1", nil},
		"empty entry":     {"a:1", []string{"a:1", ""}},
		"duplicate entry": {"a:1", []string{"a:1", "a:1"}},
		"self not member": {"b:2", []string{"a:1", "c:3"}},
	}
	for name, tc := range cases {
		if _, err := NewPeerClient(tc.self, tc.peers, PeerOptions{}); err == nil {
			t.Errorf("%s: NewPeerClient succeeded, want error", name)
		}
	}
}

func TestPeerLoopbackGetPutExec(t *testing.T) {
	h := newMapHandler()
	addr := startPeer(t, h)
	self := "self.invalid:1"
	client, err := NewPeerClient(self, []string{self, addr}, PeerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	key := peerKey(t, client, addr, "k")

	if _, ok, err := client.Get(key); err != nil || ok {
		t.Fatalf("get before the owner caches: ok=%v err=%v, want clean miss", ok, err)
	}
	// No peer can place a value on the owner (TestPeerServerRefusesPut):
	// the owner's own cache fills it.
	h.mu.Lock()
	h.m[key] = []byte("cached-value")
	h.mu.Unlock()
	val, ok, err := client.Get(key)
	if err != nil || !ok || string(val) != "cached-value" {
		t.Fatalf("get after the owner cached: val=%q ok=%v err=%v", val, ok, err)
	}

	ekey := peerKey(t, client, addr, "exec")
	val, ok, err = client.Exec(ekey, []byte("payload"))
	if err != nil || !ok || string(val) != "exec:payload" {
		t.Fatalf("exec: val=%q ok=%v err=%v", val, ok, err)
	}

	h.mu.Lock()
	h.execErr = fmt.Errorf("engine refused")
	h.mu.Unlock()
	if _, _, err := client.Exec(peerKey(t, client, addr, "boom"), nil); err == nil ||
		!strings.Contains(err.Error(), "engine refused") {
		t.Fatalf("exec error: err=%v, want owner-side message", err)
	}

	// Keys the client owns itself must never cross the wire.
	skey := peerKey(t, client, self, "mine")
	if _, _, err := client.Get(skey); err == nil {
		t.Fatal("get for self-owned key succeeded, want error")
	}
}

func TestPeerClientRejectsBadHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// A peer speaking a future protocol version.
		_, _ = c.Write([]byte{'P', 'Q', 'L', '2', WireVersion + 1})
		_ = c.Close()
	}()
	addr := ln.Addr().String()
	self := "self.invalid:1"
	client, err := NewPeerClient(self, []string{self, addr}, PeerOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Get(peerKey(t, client, addr, "k")); err == nil {
		t.Fatal("get over version-mismatched peer succeeded, want error")
	}
}

func TestPeerServerRejectsBadHello(t *testing.T) {
	addr := startPeer(t, newMapHandler())
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{'B', 'A', 'D', '!', 0}); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(nc).ReadByte(); err == nil {
		t.Fatal("server answered a bad hello, want connection close")
	}
}

// TestPeerServerRefusesPut: op 2, the retired PUT, is an unknown op. The
// frame does not decode, and a server sent it closes the connection
// without answering.
func TestPeerServerRefusesPut(t *testing.T) {
	put := []byte{2, 0, 3, 'k', 'e', 'y', 0, 0, 0, 1, 'v'}
	if _, _, _, err := ReadRequest(bytes.NewReader(put)); !errors.Is(err, ErrWire) {
		t.Fatalf("ReadRequest(op 2) err = %v, want ErrWire", err)
	}

	h := newMapHandler()
	nc, err := net.Dial("tcp", startPeer(t, h))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteHello(nc); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(br); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(put); err != nil {
		t.Fatal(err)
	}
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("server answered a PUT frame (first byte %d), want connection close", b)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.m) != 0 {
		t.Fatalf("PUT frame stored %d entries on the owner", len(h.m))
	}
}

func TestPeerDownDegradesToError(t *testing.T) {
	// Bind a port, then close it: nothing listens there anymore.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	self := "self.invalid:1"
	client, err := NewPeerClient(self, []string{self, addr}, PeerOptions{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, _, err := client.Get(peerKey(t, client, addr, "k")); err == nil {
		t.Fatal("get from down peer succeeded, want error")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("down peer stalled the caller for %v", d)
	}
}

func TestPeerClientClosedRefusesRoundTrips(t *testing.T) {
	addr := startPeer(t, newMapHandler())
	self := "self.invalid:1"
	client, err := NewPeerClient(self, []string{self, addr}, PeerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := peerKey(t, client, addr, "k")
	if _, _, err := client.Get(key); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, _, err := client.Get(key); err == nil {
		t.Fatal("get after Close succeeded, want error")
	}
}
