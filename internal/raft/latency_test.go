package raft

import (
	"testing"

	"repro/internal/sim"
)

func TestLatencyTrackerBasics(t *testing.T) {
	tr := NewLatencyTracker()
	tr.Submitted("a", 100)
	tr.Submitted("a", 150) // duplicate submit keeps the first timestamp
	tr.Committed("a", 300)
	tr.Committed("a", 400) // duplicate commit ignored
	tr.Committed("ghost", 500)
	if len(tr.latency) != 1 {
		t.Fatalf("%d commits measured, want 1", len(tr.latency))
	}
	p100, err := tr.Percentile(1)
	if err != nil {
		t.Fatal(err)
	}
	if p100 != 200 {
		t.Errorf("latency %v, want 200", p100)
	}
	if len(tr.submitted) != 0 {
		t.Errorf("%d submitted commands never committed", len(tr.submitted))
	}
}

func TestLatencyPercentiles(t *testing.T) {
	tr := NewLatencyTracker()
	for i := 1; i <= 100; i++ {
		cmd := string(rune('a'+i%26)) + string(rune('0'+i/26))
		tr.Submitted(cmd, 0)
		tr.Committed(cmd, sim.Time(i))
	}
	p50, _ := tr.Percentile(0.5)
	p99, _ := tr.Percentile(0.99)
	if p50 != 50 || p99 != 99 {
		t.Errorf("p50=%v p99=%v", p50, p99)
	}
	if _, err := tr.Percentile(0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := tr.Percentile(1.5); err == nil {
		t.Error("q>1 accepted")
	}
	if _, err := NewLatencyTracker().Percentile(0.5); err == nil {
		t.Error("empty tracker gave a percentile")
	}
}

func TestInstrumentedClusterMeasuresCommitLatency(t *testing.T) {
	c, tr, err := NewInstrumentedCluster(Config{N: 3}, 31,
		sim.UniformDelay{Min: sim.Millisecond, Max: 4 * sim.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunFor(1 * sim.Second)
	c.InstrumentedWorkload(tr, c.Sched.Now(), 50*sim.Millisecond, 20)
	c.RunFor(5 * sim.Second)
	if len(tr.latency) != 20 {
		t.Fatalf("measured %d of 20 commits (pending %d)", len(tr.latency), len(tr.submitted))
	}
	p50, err := tr.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// One round trip: 2x message delay, well under 20ms.
	if p50 <= 0 || p50 > 20*sim.Millisecond {
		t.Errorf("p50 = %v implausible", p50)
	}
	p99, _ := tr.Percentile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
}

// TestLeaderCrashOpensCommitGap measures the §4 claim's mechanism: a
// mid-run leader crash tears a blackout (election timeout + re-election)
// into the commit stream, which a reliable-leader placement avoids.
func TestLeaderCrashOpensCommitGap(t *testing.T) {
	run := func(crashLeader bool) sim.Time {
		c, tr, err := NewInstrumentedCluster(Config{N: 5}, 77,
			sim.UniformDelay{Min: sim.Millisecond, Max: 4 * sim.Millisecond}, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.RunFor(1 * sim.Second)
		c.InstrumentedWorkload(tr, c.Sched.Now(), 20*sim.Millisecond, 100)
		c.RunFor(500 * sim.Millisecond)
		if crashLeader {
			lead := c.Leader()
			if lead < 0 {
				t.Fatal("no leader")
			}
			sim.NewInjector(c.Net, c.Crashables()).CrashSet([]int{lead})
		}
		c.RunFor(10 * sim.Second)
		if err := c.Rec.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		return tr.MaxCommitGap()
	}
	smooth := run(false)
	blackout := run(true)
	if blackout < 3*smooth {
		t.Errorf("leader crash gap %v not >> fault-free gap %v", blackout, smooth)
	}
	// The blackout is at least an election timeout.
	if blackout < 150*sim.Millisecond {
		t.Errorf("blackout %v below election timeout", blackout)
	}
}
