package pbft

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Behavior selects how a node deviates from the protocol.
type Behavior int

// Behaviors.
const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// Silent is Byzantine by omission: it never sends anything. (For
	// liveness accounting this is the strongest "fail to help" behaviour.)
	Silent
	// Equivocate makes the node, when leader, send conflicting
	// pre-prepares for the same sequence number to different peers — the
	// attack non-equivocation quorums exist to contain.
	Equivocate
)

// Config parameterises a cluster.
type Config struct {
	N int
	// Quorum sizes; zero values default to the textbook sizes for
	// f = (N-1)/3: QEq = QPer = QVC = 2f+1, QVCT = f+1.
	QEq, QPer, QVC, QVCT int
	// ViewTimeout is how long a node waits on an uncommitted request
	// before agitating for a view change.
	ViewTimeout sim.Time
}

func (c Config) withDefaults() Config {
	f := (c.N - 1) / 3
	if c.QEq == 0 {
		c.QEq = 2*f + 1
	}
	if c.QPer == 0 {
		c.QPer = 2*f + 1
	}
	if c.QVC == 0 {
		c.QVC = 2*f + 1
	}
	if c.QVCT == 0 {
		c.QVCT = f + 1
	}
	if c.ViewTimeout == 0 {
		c.ViewTimeout = 500 * sim.Millisecond
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.N <= 0 {
		return fmt.Errorf("pbft: need N > 0, got %d", c.N)
	}
	for _, q := range []struct {
		name string
		v    int
	}{{"QEq", c.QEq}, {"QPer", c.QPer}, {"QVC", c.QVC}, {"QVCT", c.QVCT}} {
		if q.v < 1 || q.v > c.N {
			return fmt.Errorf("pbft: %s=%d out of range for N=%d", q.name, q.v, c.N)
		}
	}
	return nil
}

// Messages.

// Request is a client operation broadcast to all replicas (the client
// falls back to broadcasting, as in PBFT, so a silent leader cannot bury
// requests).
type Request struct {
	ID string
}

// PrePrepare assigns a sequence number to a request in a view.
type PrePrepare struct {
	View  int
	Seq   int
	Value string
}

// Prepare votes for (view, seq, value).
type Prepare struct {
	View  int
	Seq   int
	Value string
}

// Commit announces the sender holds a prepare certificate.
type Commit struct {
	View  int
	Seq   int
	Value string
}

// PreparedProof carries a prepared slot into a view change.
type PreparedProof struct {
	Seq   int
	View  int
	Value string
}

// ViewChange agitates for NewView.
type ViewChange struct {
	View     int
	Prepared []PreparedProof
}

// NewView installs a view; the new leader re-proposes prepared slots.
type NewView struct {
	View     int
	Prepared []PreparedProof
}

type slot struct {
	// accepted[view] is the value this node pre-accepted in that view.
	accepted map[int]string
	// prepares[view][value] is the set of voters seen.
	prepares map[int]map[string]map[int]bool
	commits  map[int]map[string]map[int]bool
	// preparedView/Value: highest view in which this node held a prepare
	// certificate.
	prepared      bool
	preparedView  int
	preparedValue string
	sentCommit    map[int]bool
	committed     bool
	committedVal  string
}

func newSlot() *slot {
	return &slot{
		accepted:   make(map[int]string),
		prepares:   make(map[int]map[string]map[int]bool),
		commits:    make(map[int]map[string]map[int]bool),
		sentCommit: make(map[int]bool),
	}
}

// Node is one PBFT replica.
type Node struct {
	id       int
	cfg      Config
	behavior Behavior
	net      *sim.Network
	sched    *sim.Scheduler

	alive bool
	view  int
	slots map[int]*slot
	// nextSeq is the leader's sequence counter.
	nextSeq int
	// pending tracks uncommitted request ids (for view-change agitation
	// and re-proposal after view change).
	pending map[string]bool
	// seqOf maps request id -> assigned seq once known.
	seqOf map[string]int

	// View-change state.
	vcMsgs     map[int]map[int][]PreparedProof // view -> sender -> certs
	vcJoined   map[int]bool
	joinedMax  int // highest view this node has agitated for
	newViewOut map[int]bool

	epoch uint64 // timer invalidation

	onCommit func(seq int, value string)
}

// NewNode constructs a replica and registers it with the network.
func NewNode(id int, cfg Config, behavior Behavior, net *sim.Network, onCommit func(seq int, value string)) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("pbft: id %d out of range [0,%d)", id, cfg.N)
	}
	n := &Node{
		id:         id,
		cfg:        cfg,
		behavior:   behavior,
		net:        net,
		sched:      net.Scheduler(),
		slots:      make(map[int]*slot),
		pending:    make(map[string]bool),
		seqOf:      make(map[string]int),
		vcMsgs:     make(map[int]map[int][]PreparedProof),
		vcJoined:   make(map[int]bool),
		newViewOut: make(map[int]bool),
		onCommit:   onCommit,
	}
	net.Register(id, n)
	return n, nil
}

// Start boots the replica.
func (n *Node) Start() { n.alive = true }

// ID returns the replica id.
func (n *Node) ID() int { return n.id }

// View returns the current view.
func (n *Node) View() int { return n.view }

// Alive reports liveness of the process.
func (n *Node) Alive() bool { return n.alive }

// LeaderOf returns the leader id of a view (round robin).
func (n *Node) LeaderOf(view int) int { return view % n.cfg.N }

// IsLeader reports whether this node leads its current view.
func (n *Node) IsLeader() bool { return n.LeaderOf(n.view) == n.id }

// Crash implements sim.Crashable.
func (n *Node) Crash() {
	n.alive = false
	n.epoch++
}

// Restart implements sim.Crashable. PBFT replicas persist everything
// relevant here (view, slots); the simulation keeps them in memory.
func (n *Node) Restart() { n.alive = true }

func (n *Node) broadcast(payload any) {
	if n.behavior == Silent {
		return
	}
	n.net.Broadcast(n.id, payload)
}

// Receive implements sim.Handler.
func (n *Node) Receive(from int, payload any) {
	if !n.alive || n.behavior == Silent {
		// A silent Byzantine node also ignores input: it contributes
		// nothing to any quorum.
		return
	}
	switch m := payload.(type) {
	case Request:
		n.onRequest(m)
	case PrePrepare:
		n.onPrePrepare(from, m)
	case Prepare:
		n.onPrepare(from, m)
	case Commit:
		n.onCommitMsg(from, m)
	case ViewChange:
		n.onViewChange(from, m)
	case NewView:
		n.onNewView(from, m)
	}
}

// onRequest handles a client operation reaching this replica.
func (n *Node) onRequest(m Request) {
	if n.isCommittedValue(m.ID) {
		return
	}
	if !n.pending[m.ID] {
		n.pending[m.ID] = true
		n.armViewTimer()
	}
	if n.IsLeader() {
		n.propose(m.ID)
	}
}

func (n *Node) isCommittedValue(id string) bool {
	if seq, ok := n.seqOf[id]; ok {
		if s := n.slots[seq]; s != nil && s.committed {
			return true
		}
	}
	return false
}

func (n *Node) propose(value string) {
	if _, assigned := n.seqOf[value]; assigned {
		return // already sequenced (possibly carried over a view change)
	}
	seq := n.nextSeq
	n.nextSeq++
	n.seqOf[value] = seq
	if n.behavior == Equivocate {
		// Send value to the first half of peers and a forged conflicting
		// value to the rest — the classic equivocation attack.
		forged := value + "'"
		for peer := 0; peer < n.cfg.N; peer++ {
			if peer == n.id {
				continue
			}
			v := value
			if peer%2 == 1 {
				v = forged
			}
			n.net.Send(n.id, peer, PrePrepare{View: n.view, Seq: seq, Value: v})
		}
		n.acceptPrePrepare(n.view, seq, value)
		return
	}
	n.broadcast(PrePrepare{View: n.view, Seq: seq, Value: value})
	n.acceptPrePrepare(n.view, seq, value)
}

func (n *Node) slotAt(seq int) *slot {
	s, ok := n.slots[seq]
	if !ok {
		s = newSlot()
		n.slots[seq] = s
	}
	return s
}

func (n *Node) onPrePrepare(from int, m PrePrepare) {
	if m.View != n.view || from != n.LeaderOf(m.View) {
		return
	}
	n.acceptPrePrepare(m.View, m.Seq, m.Value)
}

func (n *Node) acceptPrePrepare(view, seq int, value string) {
	s := n.slotAt(seq)
	if prev, ok := s.accepted[view]; ok && prev != value {
		return // correct nodes accept at most one value per (view, seq)
	}
	if _, ok := s.accepted[view]; !ok {
		s.accepted[view] = value
		if seq >= n.nextSeq {
			n.nextSeq = seq + 1
		}
		if _, known := n.seqOf[value]; !known {
			n.seqOf[value] = seq
		}
		if !s.committed {
			n.armViewTimer()
		}
		n.broadcast(Prepare{View: view, Seq: seq, Value: value})
		n.recordPrepare(n.id, view, seq, value)
	}
}

func (n *Node) onPrepare(from int, m Prepare) {
	if m.View != n.view {
		return
	}
	n.recordPrepare(from, m.View, m.Seq, m.Value)
}

func (n *Node) recordPrepare(from, view, seq int, value string) {
	s := n.slotAt(seq)
	byView := s.prepares[view]
	if byView == nil {
		byView = make(map[string]map[int]bool)
		s.prepares[view] = byView
	}
	voters := byView[value]
	if voters == nil {
		voters = make(map[int]bool)
		byView[value] = voters
	}
	voters[from] = true
	// Prepared: Q_eq matching prepares for the value we accepted.
	if !s.sentCommit[view] && s.accepted[view] == value && len(voters) >= n.cfg.QEq {
		s.sentCommit[view] = true
		if !s.prepared || view >= s.preparedView {
			s.prepared = true
			s.preparedView = view
			s.preparedValue = value
		}
		n.broadcast(Commit{View: view, Seq: seq, Value: value})
		n.recordCommit(n.id, view, seq, value)
	}
}

func (n *Node) onCommitMsg(from int, m Commit) {
	// Commits are accepted across views: a straggler can commit a slot
	// finished before it joined the current view.
	n.recordCommit(from, m.View, m.Seq, m.Value)
}

func (n *Node) recordCommit(from, view, seq int, value string) {
	s := n.slotAt(seq)
	byView := s.commits[view]
	if byView == nil {
		byView = make(map[string]map[int]bool)
		s.commits[view] = byView
	}
	voters := byView[value]
	if voters == nil {
		voters = make(map[int]bool)
		byView[value] = voters
	}
	voters[from] = true
	if !s.committed && len(voters) >= n.cfg.QPer {
		s.committed = true
		s.committedVal = value
		delete(n.pending, value)
		if n.onCommit != nil {
			n.onCommit(seq, value)
		}
	}
}

// armViewTimer starts (or restarts) the progress timer: if pending work is
// still uncommitted when it fires, agitate for the next view. It also starts
// the retransmission tick, which papers over messages lost to timing skew
// around view entry (real PBFT replays from message logs).
func (n *Node) armViewTimer() {
	n.epoch++
	epoch := n.epoch
	n.sched.After(n.cfg.ViewTimeout, func() { n.viewTimerFired(epoch) })
	n.retransmitTick(epoch)
}

func (n *Node) viewTimerFired(epoch uint64) {
	if !n.alive || n.epoch != epoch {
		return
	}
	if !n.hasPendingWork() {
		return
	}
	// Escalate past views already agitated for, so a silent leader of the
	// next view cannot wedge the rotation.
	target := n.view + 1
	if n.joinedMax >= target {
		target = n.joinedMax + 1
	}
	n.startViewChange(target)
	n.armViewTimer()
}

func (n *Node) retransmitTick(epoch uint64) {
	n.sched.After(n.cfg.ViewTimeout/4, func() {
		if !n.alive || n.epoch != epoch || !n.hasPendingWork() {
			return
		}
		n.retransmit()
		n.retransmitTick(epoch)
	})
}

// retransmit re-broadcasts this node's current-view protocol state for
// uncommitted slots, plus (for the leader) pre-prepares and any pending
// requests that never got sequenced.
func (n *Node) retransmit() {
	seqs := make([]int, 0, len(n.slots))
	for seq := range n.slots {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		s := n.slots[seq]
		if s.committed {
			continue
		}
		v, ok := s.accepted[n.view]
		if !ok {
			continue
		}
		if n.IsLeader() && n.behavior != Equivocate {
			n.broadcast(PrePrepare{View: n.view, Seq: seq, Value: v})
		}
		n.broadcast(Prepare{View: n.view, Seq: seq, Value: v})
		if s.sentCommit[n.view] {
			n.broadcast(Commit{View: n.view, Seq: seq, Value: v})
		}
	}
	if n.IsLeader() {
		n.proposePending()
	}
}

// proposePending sequences any pending requests the leader has not yet
// assigned, in deterministic order.
func (n *Node) proposePending() {
	ids := make([]string, 0, len(n.pending))
	for id := range n.pending {
		if _, sequenced := n.seqOf[id]; !sequenced {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		n.propose(id)
	}
}

func (n *Node) hasPendingWork() bool {
	if len(n.pending) > 0 {
		return true
	}
	for _, s := range n.slots {
		if !s.committed && len(s.accepted) > 0 {
			return true
		}
	}
	return false
}

func (n *Node) preparedCert() []PreparedProof {
	var out []PreparedProof
	for seq, s := range n.slots {
		if s.prepared && !s.committed {
			out = append(out, PreparedProof{Seq: seq, View: s.preparedView, Value: s.preparedValue})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (n *Node) startViewChange(target int) {
	if target <= n.view {
		return
	}
	if n.vcJoined[target] {
		return
	}
	n.vcJoined[target] = true
	if target > n.joinedMax {
		n.joinedMax = target
	}
	cert := n.preparedCert()
	n.broadcast(ViewChange{View: target, Prepared: cert})
	n.storeViewChange(n.id, ViewChange{View: target, Prepared: cert})
	// Re-arm so a failed view change escalates to the next view.
	n.armViewTimer()
}

func (n *Node) storeViewChange(from int, m ViewChange) {
	byView := n.vcMsgs[m.View]
	if byView == nil {
		byView = make(map[int][]PreparedProof)
		n.vcMsgs[m.View] = byView
	}
	byView[from] = m.Prepared
}

func (n *Node) onViewChange(from int, m ViewChange) {
	if m.View <= n.view {
		return
	}
	n.storeViewChange(from, m)
	// Adoption: Q_vc_t distinct view-change messages convince a correct
	// node the trigger is genuine (§3.1).
	if !n.vcJoined[m.View] && len(n.vcMsgs[m.View]) >= n.cfg.QVCT {
		n.startViewChange(m.View)
	}
	// The new leader assembles Q_vc view-changes into a NewView.
	if n.LeaderOf(m.View) == n.id && !n.newViewOut[m.View] && len(n.vcMsgs[m.View]) >= n.cfg.QVC {
		n.newViewOut[m.View] = true
		merged := n.mergeCerts(m.View)
		n.broadcast(NewView{View: m.View, Prepared: merged})
		n.enterView(m.View, merged)
	}
}

// mergeCerts takes, per sequence number, the prepared value from the
// highest view among the collected view-change messages.
func (n *Node) mergeCerts(view int) []PreparedProof {
	bestBySeq := make(map[int]PreparedProof)
	consider := func(p PreparedProof) {
		if cur, ok := bestBySeq[p.Seq]; !ok || p.View > cur.View {
			bestBySeq[p.Seq] = p
		}
	}
	for _, cert := range n.vcMsgs[view] {
		for _, p := range cert {
			consider(p)
		}
	}
	for _, p := range n.preparedCert() {
		consider(p)
	}
	out := make([]PreparedProof, 0, len(bestBySeq))
	for _, p := range bestBySeq {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (n *Node) onNewView(from int, m NewView) {
	if m.View < n.view || from != n.LeaderOf(m.View) {
		return
	}
	n.enterView(m.View, m.Prepared)
}

func (n *Node) enterView(view int, carried []PreparedProof) {
	if view < n.view {
		return
	}
	n.view = view
	// Re-accept carried prepared values in the new view.
	for _, p := range carried {
		if p.Seq >= n.nextSeq {
			n.nextSeq = p.Seq + 1
		}
		s := n.slotAt(p.Seq)
		if s.committed {
			continue
		}
		n.acceptPrePrepare(view, p.Seq, p.Value)
	}
	// Leader re-proposes pending requests that never got sequenced.
	if n.IsLeader() {
		n.proposePending()
	}
	if n.hasPendingWork() {
		n.armViewTimer()
	}
}
