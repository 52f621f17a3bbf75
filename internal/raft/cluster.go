package raft

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Cluster wires N Raft nodes to a simulated network and a trace recorder —
// the test/benchmark harness for experiment V1.
type Cluster struct {
	Cfg   Config
	Sched *sim.Scheduler
	Net   *sim.Network
	Nodes []*Node
	Rec   *trace.Recorder

	proposed int
}

// NewCluster builds a ready-to-start cluster.
func NewCluster(cfg Config, seed int64, delay sim.DelayModel, loss float64) (*Cluster, error) {
	return NewClusterWithHook(cfg, seed, delay, loss, nil)
}

// NewClusterWithHook builds a cluster whose commits additionally flow to
// `hook` (after the trace recorder) — how the replicated state machines in
// internal/kvstore attach.
func NewClusterWithHook(cfg Config, seed int64, delay sim.DelayModel, loss float64, hook func(node, slot int, e Entry)) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler(seed)
	net := sim.NewNetwork(sched, cfg.N, delay, loss)
	rec := trace.NewRecorder(cfg.N)
	c := &Cluster{Cfg: cfg, Sched: sched, Net: net, Rec: rec}
	for i := 0; i < cfg.N; i++ {
		i := i
		node, err := NewNode(i, cfg, net, func(slot int, e Entry) {
			rec.OnCommit(i, slot, e.Cmd)
			if hook != nil {
				hook(i, slot, e)
			}
		})
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

// Crashables adapts the node list for the fault injector.
func (c *Cluster) Crashables() []sim.Crashable {
	out := make([]sim.Crashable, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n
	}
	return out
}

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d sim.Time) {
	c.Sched.RunUntil(c.Sched.Now() + d)
}

// Leader returns the id of an alive node currently acting as leader, or -1.
// With a healed network there is at most one per highest term.
func (c *Cluster) Leader() int {
	best, bestTerm := -1, uint64(0)
	for _, n := range c.Nodes {
		if n.Alive() && n.Role() == Leader && n.Term() >= bestTerm {
			best, bestTerm = n.ID(), n.Term()
		}
	}
	return best
}

// ProposeAny submits cmd to the current leader if any; it reports whether
// some node accepted the proposal.
func (c *Cluster) ProposeAny(cmd string) bool {
	if l := c.Leader(); l >= 0 {
		return c.Nodes[l].Propose(cmd)
	}
	return false
}

// DriveWorkload schedules `count` uniquely numbered proposals, one every
// `interval`, retrying (with fresh slots in virtual time) while no leader is
// available. Returns after scheduling; run the scheduler to execute.
func (c *Cluster) DriveWorkload(start sim.Time, interval sim.Time, count int) {
	var submit func(i int)
	submit = func(i int) {
		if i >= count {
			return
		}
		cmd := fmt.Sprintf("op-%d", c.proposed)
		if c.ProposeAny(cmd) {
			c.proposed++
			c.Sched.After(interval, func() { submit(i + 1) })
			return
		}
		// No leader right now: retry this operation shortly.
		c.Sched.After(interval, func() { submit(i) })
	}
	c.Sched.At(start, func() { submit(0) })
}

// MaxTerm returns the highest term any node has reached — the election
// churn a fault schedule induced (each term past 1 is a leader election,
// contested or not). Crashed nodes count too: their persistent term
// survives the crash.
func (c *Cluster) MaxTerm() uint64 {
	var max uint64
	for _, n := range c.Nodes {
		if t := n.Term(); t > max {
			max = t
		}
	}
	return max
}

// AliveCorrect returns the ids of nodes that are currently up.
func (c *Cluster) AliveCorrect() []int {
	var out []int
	for _, n := range c.Nodes {
		if n.Alive() {
			out = append(out, n.ID())
		}
	}
	return out
}
