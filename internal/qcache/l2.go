package qcache

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// The peer tier: every probconsd instance serves its L1 over the binary
// wire protocol (PeerServer) and routes its own L1 misses to the one peer
// that owns each key (PeerClient). Ownership is rendezvous (highest-
// random-weight) hashing over the fingerprint bytes: every member scores
// each (peer, key) pair with the same hash and the highest score wins, so
// all members agree on the owner with no coordination, and removing a
// peer only remaps the keys that peer owned. The tier is a best-effort
// accelerator — any peer failure degrades to a local compute, never to a
// wrong or missing answer.

// L2Handler answers peer requests against the local cache. The service
// layer implements it; PeerServer adapts it onto the wire.
type L2Handler interface {
	// L2Get returns the serialized cached value for key, if present. It
	// must never compute.
	L2Get(key string) ([]byte, bool)
	// L2Exec answers the serialized request in payload for key, computing
	// under the local singleflight on a miss.
	L2Exec(key string, payload []byte) ([]byte, error)
	// L2Put offers a serialized value for key (best-effort warm).
	L2Put(key string, val []byte) error
}

// rendezvousScore ranks peer as an owner for key — allocation-free and
// identical across every member. The two fnv64a hashes are combined
// through a splitmix64 finalizer: folding one hash into the other
// directly leaves scores for different peers on the same key strongly
// correlated (one member can win almost nothing), and the avalanche
// rounds break that.
func rendezvousScore(peer, key string) uint64 {
	h := fnv64a(peer) ^ fnv64a(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// PeerOptions configures a PeerClient. Zero values take defaults.
type PeerOptions struct {
	// DialTimeout bounds connection establishment plus the hello exchange
	// (default 1s).
	DialTimeout time.Duration
}

const (
	// getTimeout bounds a GET or PUT round trip.
	getTimeout = 2 * time.Second
	// execTimeout bounds an EXEC round trip, which may include the owner
	// computing the answer: it matches the serving work bound.
	execTimeout = 2 * time.Minute
	// connsPerPeer caps persistent connections kept per peer.
	connsPerPeer = 4
)

// wireConn is one established peer connection with its buffered streams.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// peerPool is a small pool of persistent connections to one peer. sem
// counts live connections (capacity connsPerPeer); idle holds the ones
// not currently in a round trip. Acquirers race an idle connection
// against permission to dial a new one, so a burst gets parallelism up
// to the cap and a quiet client keeps one warm connection.
type peerPool struct {
	addr string
	idle chan *wireConn
	sem  chan struct{}
}

// PeerClient routes cache keys to their owning peer. Safe for concurrent
// use. The peer list must be identical (as a set) on every fleet member:
// rendezvous hashing derives ownership from the addresses themselves, so
// disagreeing lists partition the key space inconsistently — still
// correct (the tier is best-effort) but with a lower hit rate.
type PeerClient struct {
	self  string
	peers []string // sorted, including self
	pools map[string]*peerPool
	opts  PeerOptions

	mu     sync.Mutex
	closed bool
}

// NewPeerClient builds the router for one fleet member. self must appear
// in peers (it is how the member recognizes the keys it owns itself);
// addresses must be unique and non-empty.
func NewPeerClient(self string, peers []string, opts PeerOptions) (*PeerClient, error) {
	if self == "" {
		return nil, fmt.Errorf("qcache: peer self address is required")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("qcache: peer list is empty")
	}
	seen := make(map[string]bool, len(peers))
	sorted := make([]string, 0, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("qcache: empty peer address")
		}
		if seen[p] {
			return nil, fmt.Errorf("qcache: duplicate peer address %q", p)
		}
		seen[p] = true
		sorted = append(sorted, p)
	}
	if !seen[self] {
		return nil, fmt.Errorf("qcache: self address %q is not in the peer list", self)
	}
	sort.Strings(sorted)
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = time.Second
	}
	c := &PeerClient{self: self, peers: sorted, pools: map[string]*peerPool{}, opts: opts}
	for _, p := range sorted {
		if p == self {
			continue
		}
		c.pools[p] = &peerPool{
			addr: p,
			idle: make(chan *wireConn, connsPerPeer),
			sem:  make(chan struct{}, connsPerPeer),
		}
	}
	return c, nil
}

// Self returns this member's address.
func (c *PeerClient) Self() string { return c.self }

// Peers returns the full sorted member list, including self.
func (c *PeerClient) Peers() []string { return append([]string(nil), c.peers...) }

// Owner returns the peer that owns key under rendezvous hashing. Ties
// break toward the lexically larger address, deterministically.
func (c *PeerClient) Owner(key string) string {
	best, bestScore := c.peers[0], rendezvousScore(c.peers[0], key)
	for _, p := range c.peers[1:] {
		if s := rendezvousScore(p, key); s > bestScore || (s == bestScore && p > best) {
			best, bestScore = p, s
		}
	}
	return best
}

// SelfOwns reports whether this member owns key — the caller should then
// compute locally instead of consulting the tier.
func (c *PeerClient) SelfOwns(key string) bool { return c.Owner(key) == c.self }

// Get asks the owner peer for its cached value for key. ok is false on a
// clean miss; err covers transport and protocol failures (including the
// owner being self — use SelfOwns first).
func (c *PeerClient) Get(key string) (val []byte, ok bool, err error) {
	return c.roundTrip(OpGet, key, nil, getTimeout)
}

// Exec asks the owner peer to answer payload for key, computing under the
// owner's singleflight on a miss. ok is false only on an owner-side miss
// status, which Exec should not produce; transport failures return err.
func (c *PeerClient) Exec(key string, payload []byte) (val []byte, ok bool, err error) {
	return c.roundTrip(OpExec, key, payload, execTimeout)
}

// Put offers the owner peer a value for key, best-effort.
func (c *PeerClient) Put(key string, val []byte) error {
	_, _, err := c.roundTrip(OpPut, key, val, getTimeout)
	return err
}

func (c *PeerClient) roundTrip(op byte, key string, payload []byte, timeout time.Duration) ([]byte, bool, error) {
	owner := c.Owner(key)
	if owner == c.self {
		return nil, false, fmt.Errorf("qcache: key %q is owned by self", key)
	}
	pool := c.pools[owner]
	conn, err := c.acquire(pool)
	if err != nil {
		return nil, false, err
	}
	status, val, err := c.exchange(conn, op, key, payload, timeout)
	if err != nil {
		_ = conn.c.Close()
		<-pool.sem
		return nil, false, err
	}
	pool.idle <- conn
	switch status {
	case StatusOK:
		return val, true, nil
	case StatusMiss:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("qcache: peer %s: %s", owner, val)
	}
}

// acquire returns a connection to pool's peer: an idle one when
// available, a fresh dial when under the connection cap, otherwise it
// waits for whichever frees first.
func (c *PeerClient) acquire(pool *peerPool) (*wireConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("qcache: peer client is closed")
	}
	select {
	case conn := <-pool.idle:
		return conn, nil
	default:
	}
	select {
	case conn := <-pool.idle:
		return conn, nil
	case pool.sem <- struct{}{}:
		conn, err := c.dial(pool.addr)
		if err != nil {
			<-pool.sem
			return nil, err
		}
		return conn, nil
	}
}

// dial establishes one connection and exchanges hellos.
func (c *PeerClient) dial(addr string) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("qcache: dial peer %s: %w", addr, err)
	}
	conn := &wireConn{c: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	_ = nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	if err := WriteHello(conn.bw); err == nil {
		err = conn.bw.Flush()
	}
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("qcache: hello to peer %s: %w", addr, err)
	}
	if err := ReadHello(conn.br); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("qcache: hello from peer %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Time{})
	return conn, nil
}

// exchange performs one request/response round trip under a deadline.
func (c *PeerClient) exchange(conn *wireConn, op byte, key string, payload []byte, timeout time.Duration) (byte, []byte, error) {
	_ = conn.c.SetDeadline(time.Now().Add(timeout))
	if err := WriteRequest(conn.bw, op, key, payload); err != nil {
		return 0, nil, err
	}
	if err := conn.bw.Flush(); err != nil {
		return 0, nil, err
	}
	status, val, err := ReadResponse(conn.br)
	if err != nil {
		return 0, nil, err
	}
	_ = conn.c.SetDeadline(time.Time{})
	return status, val, nil
}

// Close shuts the client: idle connections are closed and new round
// trips refused. In-flight round trips finish or time out on their own
// deadlines.
func (c *PeerClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for _, pool := range c.pools {
		for {
			select {
			case conn := <-pool.idle:
				_ = conn.c.Close()
				continue
			default:
			}
			break
		}
	}
	return nil
}

// Server-side deadlines: a peer may sit idle between requests for a long
// time (idleTimeout bounds a dead peer's connection lifetime); once a
// request arrives, reading its body and writing the response must be
// prompt (ioTimeout), but the compute an EXEC triggers between them is
// bounded by the serving work bound, not the transport.
const (
	l2IdleTimeout = 5 * time.Minute
	l2IOTimeout   = 30 * time.Second
)

// PeerServer serves an L2Handler over the wire protocol. One instance
// handles any number of listeners and connections.
type PeerServer struct {
	h L2Handler

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewPeerServer builds a server answering peer requests from h.
func NewPeerServer(h L2Handler) *PeerServer {
	return &PeerServer{h: h, lns: map[net.Listener]struct{}{}, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Close. It returns nil after a
// Close-triggered shutdown and the accept error otherwise.
func (s *PeerServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("qcache: peer server is closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

func (s *PeerServer) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	_ = c.SetDeadline(time.Now().Add(l2IOTimeout))
	if err := ReadHello(br); err != nil {
		return
	}
	if err := WriteHello(bw); err != nil || bw.Flush() != nil {
		return
	}
	for {
		_ = c.SetDeadline(time.Now().Add(l2IdleTimeout))
		op, key, payload, err := ReadRequest(br)
		if err != nil {
			return
		}
		// The compute inside L2Exec must not race the transport deadline.
		_ = c.SetDeadline(time.Time{})
		status, val := s.dispatch(op, key, payload)
		_ = c.SetDeadline(time.Now().Add(l2IOTimeout))
		if err := WriteResponse(bw, status, val); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch answers one request frame. Handler errors become StatusError
// with the message as the value, bounded to the entry size.
func (s *PeerServer) dispatch(op byte, key string, payload []byte) (byte, []byte) {
	switch op {
	case OpGet:
		val, ok := s.h.L2Get(key)
		if !ok {
			return StatusMiss, nil
		}
		return StatusOK, val
	case OpExec:
		val, err := s.h.L2Exec(key, payload)
		if err != nil {
			return StatusError, errVal(err)
		}
		return StatusOK, val
	case OpPut:
		if err := s.h.L2Put(key, payload); err != nil {
			return StatusError, errVal(err)
		}
		return StatusOK, nil
	default:
		return StatusError, []byte(fmt.Sprintf("unknown op %d", op))
	}
}

func errVal(err error) []byte {
	msg := err.Error()
	if len(msg) > MaxEntryBytes {
		msg = msg[:MaxEntryBytes]
	}
	return []byte(msg)
}

// Close stops all listeners, closes all connections, and waits for
// connection goroutines to drain.
func (s *PeerServer) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
