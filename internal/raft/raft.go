package raft

import (
	"fmt"

	"repro/internal/sim"
)

// Role is a node's current protocol role.
type Role int

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String renders the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Entry is one log entry.
type Entry struct {
	Term uint64
	Cmd  string
}

// Config parameterises a cluster.
type Config struct {
	// N is the cluster size.
	N int
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin sim.Time
	ElectionTimeoutMax sim.Time
	// HeartbeatInterval is the leader's AppendEntries cadence.
	HeartbeatInterval sim.Time
	// QPer is the commit (persistence) quorum size; 0 means majority.
	QPer int
	// QVC is the election (view-change) quorum size; 0 means majority.
	QVC int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	maj := c.N/2 + 1
	if c.QPer == 0 {
		c.QPer = maj
	}
	if c.QVC == 0 {
		c.QVC = maj
	}
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 150 * sim.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 300 * sim.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 50 * sim.Millisecond
	}
	return c
}

// Validate rejects broken configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.N <= 0 {
		return fmt.Errorf("raft: need N > 0, got %d", c.N)
	}
	if c.QPer < 1 || c.QPer > c.N || c.QVC < 1 || c.QVC > c.N {
		return fmt.Errorf("raft: quorums out of range: N=%d QPer=%d QVC=%d", c.N, c.QPer, c.QVC)
	}
	if c.ElectionTimeoutMin > c.ElectionTimeoutMax {
		return fmt.Errorf("raft: election timeout min %v > max %v", c.ElectionTimeoutMin, c.ElectionTimeoutMax)
	}
	if c.HeartbeatInterval >= c.ElectionTimeoutMin {
		return fmt.Errorf("raft: heartbeat %v must be below election timeout %v", c.HeartbeatInterval, c.ElectionTimeoutMin)
	}
	return nil
}

// Messages. Exported for tests and the simulator's tracing hooks.

// RequestVote solicits a vote for a candidate.
type RequestVote struct {
	Term         uint64
	Candidate    int
	LastLogIndex int
	LastLogTerm  uint64
}

// VoteReply answers RequestVote.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// AppendEntries replicates log entries (empty = heartbeat).
type AppendEntries struct {
	Term         uint64
	Leader       int
	PrevLogIndex int
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit int
}

// AppendReply answers AppendEntries.
type AppendReply struct {
	Term    uint64
	Success bool
	// Match is the sender's highest replicated index on success; on
	// failure it hints where the leader should back up to.
	Match int
}

// persistent is the state a real node would fsync; it survives Crash and
// Restart.
type persistent struct {
	currentTerm uint64
	votedFor    int // -1 = none
	log         []Entry
}

// Node is one Raft participant.
type Node struct {
	id    int
	cfg   Config
	net   *sim.Network
	sched *sim.Scheduler

	alive bool
	role  Role
	ps    persistent

	// Volatile state (reset on restart).
	commitIndex int // number of committed entries (log prefix length)
	leaderID    int

	// Candidate state.
	votes map[int]bool

	// Leader state.
	nextIndex  []int
	matchIndex []int

	// epoch invalidates outstanding timers across role changes, crashes and
	// restarts.
	epoch uint64

	// onCommit is invoked exactly once per newly committed slot, in order.
	onCommit func(slot int, e Entry)
	applied  int
}

// NewNode constructs (but does not start) a node.
func NewNode(id int, cfg Config, net *sim.Network, onCommit func(slot int, e Entry)) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("raft: id %d out of range [0,%d)", id, cfg.N)
	}
	n := &Node{
		id:       id,
		cfg:      cfg,
		net:      net,
		sched:    net.Scheduler(),
		ps:       persistent{votedFor: -1},
		leaderID: -1,
		onCommit: onCommit,
	}
	net.Register(id, n)
	return n, nil
}

// Start boots the node as a follower.
func (n *Node) Start() {
	n.alive = true
	n.becomeFollower(n.ps.currentTerm, -1)
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Role returns the current role.
func (n *Node) Role() Role { return n.role }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.ps.currentTerm }

// Alive reports whether the node is running.
func (n *Node) Alive() bool { return n.alive }

// Crash implements sim.Crashable: the process dies, volatile state is lost,
// persistent state (term, vote, log) survives.
func (n *Node) Crash() {
	n.alive = false
	n.epoch++
	n.role = Follower
	n.leaderID = -1
	n.votes = nil
	n.nextIndex = nil
	n.matchIndex = nil
}

// Restart implements sim.Crashable: the process comes back with persistent
// state only. Committed-entry delivery restarts from zero; the state
// machine layer treats re-application idempotently, as a snapshot-less
// replay would.
func (n *Node) Restart() {
	n.commitIndex = 0
	n.applied = 0
	n.Start()
}

// Propose appends a command if this node currently believes itself leader.
// It returns false (and does nothing) otherwise.
func (n *Node) Propose(cmd string) bool {
	if !n.alive || n.role != Leader {
		return false
	}
	n.ps.log = append(n.ps.log, Entry{Term: n.ps.currentTerm, Cmd: cmd})
	n.matchIndex[n.id] = len(n.ps.log)
	n.maybeAdvanceCommit()
	n.replicateAll()
	return true
}

// Receive implements sim.Handler.
func (n *Node) Receive(from int, payload any) {
	if !n.alive {
		return
	}
	switch m := payload.(type) {
	case RequestVote:
		n.onRequestVote(from, m)
	case VoteReply:
		n.onVoteReply(from, m)
	case AppendEntries:
		n.onAppendEntries(from, m)
	case AppendReply:
		n.onAppendReply(from, m)
	}
}

func (n *Node) lastLogIndex() int { return len(n.ps.log) }

func (n *Node) lastLogTerm() uint64 {
	if len(n.ps.log) == 0 {
		return 0
	}
	return n.ps.log[len(n.ps.log)-1].Term
}

func (n *Node) electionTimeout() sim.Time {
	lo, hi := n.cfg.ElectionTimeoutMin, n.cfg.ElectionTimeoutMax
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(n.sched.RNG().Int63n(int64(hi-lo+1)))
}

func (n *Node) becomeFollower(term uint64, leader int) {
	if term > n.ps.currentTerm {
		n.ps.currentTerm = term
		n.ps.votedFor = -1
	}
	n.role = Follower
	n.leaderID = leader
	n.votes = nil
	n.resetElectionTimer()
}

func (n *Node) resetElectionTimer() {
	n.epoch++
	epoch := n.epoch
	n.sched.After(n.electionTimeout(), func() {
		if n.alive && n.epoch == epoch && n.role != Leader {
			n.startElection()
		}
	})
}

func (n *Node) startElection() {
	n.role = Candidate
	n.ps.currentTerm++
	n.ps.votedFor = n.id
	n.leaderID = -1
	n.votes = map[int]bool{n.id: true}
	req := RequestVote{
		Term:         n.ps.currentTerm,
		Candidate:    n.id,
		LastLogIndex: n.lastLogIndex(),
		LastLogTerm:  n.lastLogTerm(),
	}
	n.net.Broadcast(n.id, req)
	n.maybeWinElection()
	n.resetElectionTimer() // retry with a fresh timeout if the election stalls
}

func (n *Node) onRequestVote(from int, m RequestVote) {
	if m.Term > n.ps.currentTerm {
		n.becomeFollower(m.Term, -1)
	}
	granted := false
	if m.Term == n.ps.currentTerm && (n.ps.votedFor == -1 || n.ps.votedFor == m.Candidate) && n.logUpToDate(m) {
		granted = true
		n.ps.votedFor = m.Candidate
		n.resetElectionTimer()
	}
	n.net.Send(n.id, from, VoteReply{Term: n.ps.currentTerm, Granted: granted})
}

// logUpToDate implements the Raft §5.4.1 election restriction.
func (n *Node) logUpToDate(m RequestVote) bool {
	if m.LastLogTerm != n.lastLogTerm() {
		return m.LastLogTerm > n.lastLogTerm()
	}
	return m.LastLogIndex >= n.lastLogIndex()
}

func (n *Node) onVoteReply(from int, m VoteReply) {
	if m.Term > n.ps.currentTerm {
		n.becomeFollower(m.Term, -1)
		return
	}
	if n.role != Candidate || m.Term != n.ps.currentTerm || !m.Granted {
		return
	}
	n.votes[from] = true
	n.maybeWinElection()
}

func (n *Node) maybeWinElection() {
	if n.role != Candidate || len(n.votes) < n.cfg.QVC {
		return
	}
	n.role = Leader
	n.leaderID = n.id
	n.nextIndex = make([]int, n.cfg.N)
	n.matchIndex = make([]int, n.cfg.N)
	for i := range n.nextIndex {
		n.nextIndex[i] = n.lastLogIndex()
	}
	n.matchIndex[n.id] = n.lastLogIndex()
	n.epoch++
	n.heartbeatLoop(n.epoch)
}

func (n *Node) heartbeatLoop(epoch uint64) {
	if !n.alive || n.role != Leader || n.epoch != epoch {
		return
	}
	n.replicateAll()
	n.sched.After(n.cfg.HeartbeatInterval, func() { n.heartbeatLoop(epoch) })
}

func (n *Node) replicateAll() {
	for peer := 0; peer < n.cfg.N; peer++ {
		if peer != n.id {
			n.sendAppend(peer)
		}
	}
}

func (n *Node) sendAppend(peer int) {
	next := n.nextIndex[peer]
	if next < 0 {
		next = 0
	}
	prevTerm := uint64(0)
	if next > 0 {
		prevTerm = n.ps.log[next-1].Term
	}
	entries := append([]Entry(nil), n.ps.log[next:]...)
	n.net.Send(n.id, peer, AppendEntries{
		Term:         n.ps.currentTerm,
		Leader:       n.id,
		PrevLogIndex: next,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) onAppendEntries(from int, m AppendEntries) {
	if m.Term < n.ps.currentTerm {
		n.net.Send(n.id, from, AppendReply{Term: n.ps.currentTerm, Success: false, Match: 0})
		return
	}
	// Valid leader for this term: follow it.
	n.becomeFollower(m.Term, m.Leader)

	// Consistency check on the previous entry.
	if m.PrevLogIndex > n.lastLogIndex() ||
		(m.PrevLogIndex > 0 && n.ps.log[m.PrevLogIndex-1].Term != m.PrevLogTerm) {
		hint := n.lastLogIndex()
		if m.PrevLogIndex-1 < hint {
			hint = m.PrevLogIndex - 1
		}
		if hint < 0 {
			hint = 0
		}
		n.net.Send(n.id, from, AppendReply{Term: n.ps.currentTerm, Success: false, Match: hint})
		return
	}
	// Append/overwrite from PrevLogIndex.
	for i, e := range m.Entries {
		idx := m.PrevLogIndex + i
		if idx < len(n.ps.log) {
			if n.ps.log[idx].Term != e.Term {
				n.ps.log = n.ps.log[:idx]
				n.ps.log = append(n.ps.log, e)
			}
		} else {
			n.ps.log = append(n.ps.log, e)
		}
	}
	match := m.PrevLogIndex + len(m.Entries)
	if m.LeaderCommit > n.commitIndex {
		ci := m.LeaderCommit
		if ci > match {
			ci = match
		}
		if ci > n.commitIndex {
			n.commitIndex = ci
			n.applyCommitted()
		}
	}
	n.net.Send(n.id, from, AppendReply{Term: n.ps.currentTerm, Success: true, Match: match})
}

func (n *Node) onAppendReply(from int, m AppendReply) {
	if m.Term > n.ps.currentTerm {
		n.becomeFollower(m.Term, -1)
		return
	}
	if n.role != Leader || m.Term != n.ps.currentTerm {
		return
	}
	if m.Success {
		if m.Match > n.matchIndex[from] {
			n.matchIndex[from] = m.Match
		}
		if m.Match > n.nextIndex[from] {
			n.nextIndex[from] = m.Match
		}
		n.maybeAdvanceCommit()
		return
	}
	// Back up and retry.
	if m.Match < n.nextIndex[from] {
		n.nextIndex[from] = m.Match
	} else if n.nextIndex[from] > 0 {
		n.nextIndex[from]--
	}
	n.sendAppend(from)
}

// maybeAdvanceCommit commits the highest index replicated on a persistence
// quorum with an entry from the current term (Raft §5.4.2).
func (n *Node) maybeAdvanceCommit() {
	for idx := n.lastLogIndex(); idx > n.commitIndex; idx-- {
		if n.ps.log[idx-1].Term != n.ps.currentTerm {
			break
		}
		count := 0
		for _, m := range n.matchIndex {
			if m >= idx {
				count++
			}
		}
		if count >= n.cfg.QPer {
			n.commitIndex = idx
			n.applyCommitted()
			break
		}
	}
}

func (n *Node) applyCommitted() {
	for n.applied < n.commitIndex {
		slot := n.applied
		n.applied++
		if n.onCommit != nil {
			n.onCommit(slot, n.ps.log[slot])
		}
	}
}
