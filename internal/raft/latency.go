package raft

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// LatencyTracker measures proposal-to-first-commit latency in virtual time.
// §4 argues that choosing leaders among reliable nodes "can improve tail
// latency [and] reduce reconfiguration delays"; this is the instrument that
// makes the claim measurable on the simulator (see the leader-placement
// ablation in bench_test.go).
type LatencyTracker struct {
	submitted map[string]sim.Time
	latency   []sim.Time
	// blackout accounting: the longest gap between consecutive commits.
	lastCommit sim.Time
	maxGap     sim.Time
	commits    int
}

// NewLatencyTracker returns an empty tracker.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{submitted: make(map[string]sim.Time)}
}

// Submitted records that cmd was accepted by a leader at time t.
func (l *LatencyTracker) Submitted(cmd string, t sim.Time) {
	if _, dup := l.submitted[cmd]; !dup {
		l.submitted[cmd] = t
	}
}

// Committed records the first commit of cmd at time t (subsequent commits
// of the same command, e.g. at other replicas, are ignored).
func (l *LatencyTracker) Committed(cmd string, t sim.Time) {
	start, ok := l.submitted[cmd]
	if !ok {
		return
	}
	delete(l.submitted, cmd)
	l.latency = append(l.latency, t-start)
	if l.commits > 0 && t-l.lastCommit > l.maxGap {
		l.maxGap = t - l.lastCommit
	}
	if t > l.lastCommit {
		l.lastCommit = t
	}
	l.commits++
}

// Percentile returns the q-quantile (0 < q <= 1) of commit latency.
func (l *LatencyTracker) Percentile(q float64) (sim.Time, error) {
	if len(l.latency) == 0 {
		return 0, fmt.Errorf("raft: no latency samples")
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("raft: quantile %v out of (0,1]", q)
	}
	sorted := append([]sim.Time(nil), l.latency...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], nil
}

// MaxCommitGap returns the longest blackout between consecutive commits —
// the availability hole a leader failover tears open.
func (l *LatencyTracker) MaxCommitGap() sim.Time { return l.maxGap }

// NewInstrumentedCluster builds a cluster whose commits feed a
// LatencyTracker (first commit of each command, in virtual time).
func NewInstrumentedCluster(cfg Config, seed int64, delay sim.DelayModel, loss float64) (*Cluster, *LatencyTracker, error) {
	tr := NewLatencyTracker()
	var c *Cluster
	cluster, err := NewClusterWithHook(cfg, seed, delay, loss, func(node, slot int, e Entry) {
		tr.Committed(e.Cmd, c.Sched.Now())
	})
	if err != nil {
		return nil, nil, err
	}
	c = cluster
	return c, tr, nil
}

// InstrumentedWorkload is DriveWorkload plus submit-time recording into tr.
func (c *Cluster) InstrumentedWorkload(tr *LatencyTracker, start, interval sim.Time, count int) {
	var submit func(i int)
	submit = func(i int) {
		if i >= count {
			return
		}
		cmd := fmt.Sprintf("op-%d", c.proposed)
		if c.ProposeAny(cmd) {
			tr.Submitted(cmd, c.Sched.Now())
			c.proposed++
			c.Sched.After(interval, func() { submit(i + 1) })
			return
		}
		c.Sched.After(interval, func() { submit(i) })
	}
	c.Sched.At(start, func() { submit(0) })
}
