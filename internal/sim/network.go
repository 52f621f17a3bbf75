package sim

import (
	"fmt"
	"math/rand"
)

// Handler is a protocol node's receive entry point.
type Handler interface {
	// Receive delivers payload sent by node `from`. It runs inside the
	// scheduler, so implementations may send messages and set timers but
	// must not block.
	Receive(from int, payload any)
}

// DelayModel draws a one-way message latency.
type DelayModel interface {
	Delay(rng *rand.Rand) Time
}

// FixedDelay delivers every message after exactly D.
type FixedDelay struct{ D Time }

// Delay implements DelayModel.
func (f FixedDelay) Delay(*rand.Rand) Time { return f.D }

// UniformDelay draws uniformly from [Min, Max].
type UniformDelay struct{ Min, Max Time }

// Delay implements DelayModel.
func (u UniformDelay) Delay(rng *rand.Rand) Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + Time(rng.Int63n(int64(u.Max-u.Min+1)))
}

// NetStats counts network activity.
type NetStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // random loss
	Cut       uint64 // partition or crashed endpoint
}

// Network connects n handlers through the scheduler with configurable
// delay, loss, partitions, and per-node crash state.
type Network struct {
	sched    *Scheduler
	handlers []Handler
	delay    DelayModel
	lossProb float64
	down     []bool
	group    []int // partition group per node; nodes in different groups cannot talk
	stats    NetStats
}

// NewNetwork builds a network for n nodes. Handlers are registered later
// (protocol construction needs the network first).
func NewNetwork(sched *Scheduler, n int, delay DelayModel, lossProb float64) *Network {
	if lossProb < 0 || lossProb >= 1 {
		panic(fmt.Sprintf("sim: loss probability %v out of [0,1)", lossProb))
	}
	return &Network{
		sched:    sched,
		handlers: make([]Handler, n),
		delay:    delay,
		lossProb: lossProb,
		down:     make([]bool, n),
		group:    make([]int, n),
	}
}

// Register attaches node i's handler.
func (nw *Network) Register(i int, h Handler) { nw.handlers[i] = h }

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.handlers) }

// Scheduler returns the underlying scheduler.
func (nw *Network) Scheduler() *Scheduler { return nw.sched }

// SetDown marks node i crashed (true) or recovered (false). Messages to or
// from a down node are cut; in-flight messages to it are dropped at
// delivery time.
func (nw *Network) SetDown(i int, down bool) { nw.down[i] = down }

// Partition splits the network: nodes with different group labels cannot
// exchange messages. Passing nil heals all partitions.
func (nw *Network) Partition(groups []int) {
	if groups == nil {
		for i := range nw.group {
			nw.group[i] = 0
		}
		return
	}
	if len(groups) != len(nw.group) {
		panic(fmt.Sprintf("sim: partition labels %d != nodes %d", len(groups), len(nw.group)))
	}
	copy(nw.group, groups)
}

// Send schedules delivery of payload from -> to. Messages from or to down
// nodes, across partitions, or hit by random loss are counted and dropped.
// Delivery re-checks the destination's crash state and the partition at
// delivery time, so messages in flight when a node dies are lost with it.
func (nw *Network) Send(from, to int, payload any) {
	nw.stats.Sent++
	if nw.down[from] {
		nw.stats.Cut++
		return
	}
	if nw.lossProb > 0 && nw.sched.rng.Float64() < nw.lossProb {
		nw.stats.Dropped++
		return
	}
	d := nw.delay.Delay(nw.sched.rng)
	nw.sched.After(d, func() {
		if nw.down[to] || nw.group[from] != nw.group[to] {
			nw.stats.Cut++
			return
		}
		if h := nw.handlers[to]; h != nil {
			nw.stats.Delivered++
			h.Receive(from, payload)
		}
	})
}

// Broadcast sends payload from `from` to every other node.
func (nw *Network) Broadcast(from int, payload any) {
	for to := range nw.handlers {
		if to != from {
			nw.Send(from, to, payload)
		}
	}
}
