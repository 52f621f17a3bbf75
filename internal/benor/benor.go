package benor

import (
	"fmt"

	"repro/internal/sim"
)

// Value is a binary consensus value.
type Value int

// Unset marks "no proposal" (⊥ is represented separately).
const (
	Zero Value = 0
	One  Value = 1
)

// Config parameterises a cluster.
type Config struct {
	N int
	F int // crash tolerance; requires N > 2F
	// MaxRounds aborts runaway executions in tests (0 = 1000).
	MaxRounds int
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("benor: need N > 0, got %d", c.N)
	}
	if c.F < 0 || c.N <= 2*c.F {
		return fmt.Errorf("benor: need N > 2F, got N=%d F=%d", c.N, c.F)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = 1000
	}
	return c
}

// report is the phase-1 message.
type report struct {
	Round int
	Val   Value
}

// proposal is the phase-2 message; Bot marks ⊥.
type proposal struct {
	Round int
	Val   Value
	Bot   bool
}

// decide short-circuits laggards once someone decides.
type decide struct {
	Val Value
}

// Node is one Ben-Or participant.
type Node struct {
	id    int
	cfg   Config
	net   *sim.Network
	sched *sim.Scheduler

	alive   bool
	val     Value
	round   int
	phase   int // 1 or 2
	decided bool
	outcome Value

	reports   map[int]map[int]Value    // round -> sender -> value
	proposals map[int]map[int]proposal // round -> sender -> proposal

	onDecide func(v Value, round int)
}

// NewNode constructs a node with the given initial value.
func NewNode(id int, cfg Config, initial Value, net *sim.Network, onDecide func(Value, int)) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("benor: id %d out of range", id)
	}
	n := &Node{
		id: id, cfg: cfg, net: net, sched: net.Scheduler(),
		val:       initial,
		reports:   make(map[int]map[int]Value),
		proposals: make(map[int]map[int]proposal),
		onDecide:  onDecide,
	}
	net.Register(id, n)
	return n, nil
}

// Start begins round 1.
func (n *Node) Start() {
	n.alive = true
	n.round = 1
	n.phase = 1
	n.broadcastReport()
}

// Decided reports whether and what the node decided.
func (n *Node) Decided() (Value, bool) { return n.outcome, n.decided }

// Round returns the node's current round (the deciding round once decided).
func (n *Node) Round() int { return n.round }

// Crash implements sim.Crashable.
func (n *Node) Crash() { n.alive = false }

// Restart implements sim.Crashable. Ben-Or nodes restart where they left
// off (all state in this simulation is "persistent").
func (n *Node) Restart() { n.alive = true }

func (n *Node) broadcastReport() {
	m := report{Round: n.round, Val: n.val}
	n.net.Broadcast(n.id, m)
	n.storeReport(n.id, m)
}

func (n *Node) broadcastProposal(p proposal) {
	n.net.Broadcast(n.id, p)
	n.storeProposal(n.id, p)
}

// Receive implements sim.Handler.
func (n *Node) Receive(from int, payload any) {
	if !n.alive {
		return
	}
	switch m := payload.(type) {
	case report:
		n.storeReport(from, m)
	case proposal:
		n.storeProposal(from, m)
	case decide:
		n.finish(m.Val)
	}
}

func (n *Node) storeReport(from int, m report) {
	byRound := n.reports[m.Round]
	if byRound == nil {
		byRound = make(map[int]Value)
		n.reports[m.Round] = byRound
	}
	byRound[from] = m.Val
	n.step()
}

func (n *Node) storeProposal(from int, m proposal) {
	byRound := n.proposals[m.Round]
	if byRound == nil {
		byRound = make(map[int]proposal)
		n.proposals[m.Round] = byRound
	}
	byRound[from] = m
	n.step()
}

// step advances through phases whenever enough messages are in.
func (n *Node) step() {
	if n.decided || !n.alive {
		return
	}
	need := n.cfg.N - n.cfg.F
	if n.phase == 1 {
		got := n.reports[n.round]
		if len(got) < need {
			return
		}
		zero, one := 0, 0
		for _, v := range got {
			if v == Zero {
				zero++
			} else {
				one++
			}
		}
		// Crash-fault Ben-Or: propose w when a strict majority of ALL N
		// nodes reported w among the n-f collected reports. Two nodes can
		// then never propose different values (their majorities intersect).
		p := proposal{Round: n.round, Bot: true}
		if 2*zero > n.cfg.N {
			p = proposal{Round: n.round, Val: Zero}
		} else if 2*one > n.cfg.N {
			p = proposal{Round: n.round, Val: One}
		}
		n.phase = 2
		n.broadcastProposal(p)
		return
	}
	// Phase 2.
	got := n.proposals[n.round]
	if len(got) < need {
		return
	}
	countZero, countOne := 0, 0
	for _, p := range got {
		if p.Bot {
			continue
		}
		if p.Val == Zero {
			countZero++
		} else {
			countOne++
		}
	}
	switch {
	case countZero >= n.cfg.F+1:
		n.decideAndTell(Zero)
		return
	case countOne >= n.cfg.F+1:
		n.decideAndTell(One)
		return
	case countZero > 0:
		n.val = Zero
	case countOne > 0:
		n.val = One
	default:
		if n.sched.RNG().Intn(2) == 0 {
			n.val = Zero
		} else {
			n.val = One
		}
	}
	if n.round >= n.cfg.MaxRounds {
		return // give up; tests treat this as non-termination
	}
	n.round++
	n.phase = 1
	n.broadcastReport()
}

func (n *Node) decideAndTell(v Value) {
	n.net.Broadcast(n.id, decide{Val: v})
	n.finish(v)
}

func (n *Node) finish(v Value) {
	if n.decided {
		return
	}
	n.decided = true
	n.outcome = v
	if n.onDecide != nil {
		n.onDecide(v, n.round)
	}
}

// Cluster wires N nodes with initial values.
type Cluster struct {
	Cfg   Config
	Sched *sim.Scheduler
	Net   *sim.Network
	Nodes []*Node
}

// NewCluster builds a cluster with the given initial values
// (len(initial) == N).
func NewCluster(cfg Config, initial []Value, seed int64, delay sim.DelayModel, loss float64) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != cfg.N {
		return nil, fmt.Errorf("benor: %d initial values for %d nodes", len(initial), cfg.N)
	}
	sched := sim.NewScheduler(seed)
	net := sim.NewNetwork(sched, cfg.N, delay, loss)
	c := &Cluster{Cfg: cfg, Sched: sched, Net: net}
	for i := 0; i < cfg.N; i++ {
		node, err := NewNode(i, cfg, initial[i], net, nil)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Start boots every node.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// RunFor advances virtual time.
func (c *Cluster) RunFor(d sim.Time) { c.Sched.RunUntil(c.Sched.Now() + d) }

// Crashables adapts for the injector.
func (c *Cluster) Crashables() []sim.Crashable {
	out := make([]sim.Crashable, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n
	}
	return out
}

// Agreement checks that no two decided nodes chose different values; it
// returns the decided value (if any), how many alive-correct nodes decided,
// and an error on disagreement.
func (c *Cluster) Agreement() (Value, int, error) {
	var val Value
	seen := false
	count := 0
	for _, n := range c.Nodes {
		v, ok := n.Decided()
		if !ok {
			continue
		}
		count++
		if !seen {
			val, seen = v, true
			continue
		}
		if v != val {
			return 0, count, fmt.Errorf("benor: disagreement: %v vs %v", val, v)
		}
	}
	return val, count, nil
}

// MaxRound returns the highest round any node reached.
func (c *Cluster) MaxRound() int {
	max := 0
	for _, n := range c.Nodes {
		if n.Round() > max {
			max = n.Round()
		}
	}
	return max
}
