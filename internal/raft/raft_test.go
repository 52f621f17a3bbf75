package raft

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func newTestCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{N: n}, seed, sim.UniformDelay{Min: 1 * sim.Millisecond, Max: 5 * sim.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c
}

func TestElectsSingleLeader(t *testing.T) {
	c := newTestCluster(t, 5, 1)
	c.RunFor(2 * sim.Second)
	l := c.Leader()
	if l < 0 {
		t.Fatal("no leader elected")
	}
	// Exactly one leader in the highest term.
	leaders := 0
	for _, n := range c.Nodes {
		if n.Role() == Leader && n.Term() == c.Nodes[l].Term() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders in the same term", leaders)
	}
	// Followers learn the leader.
	for _, n := range c.Nodes {
		if n.ID() != l && n.leaderID != l {
			t.Errorf("node %d thinks leader is %d, want %d", n.ID(), n.leaderID, l)
		}
	}
}

func TestReplicatesAndCommits(t *testing.T) {
	c := newTestCluster(t, 3, 2)
	c.RunFor(1 * sim.Second)
	for i := 0; i < 10; i++ {
		if !c.ProposeAny(fmt.Sprintf("op-%d", i)) {
			t.Fatalf("proposal %d rejected", i)
		}
		c.RunFor(100 * sim.Millisecond)
	}
	c.RunFor(1 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if got := len(c.Rec.Committed(n.ID())); got != 10 {
			t.Errorf("node %d committed %d, want 10 (%s)", n.ID(), got, c.Rec.Summary())
		}
	}
	// Logs identical.
	ref := c.Nodes[0].ps.log
	for _, n := range c.Nodes[1:] {
		log := n.ps.log
		if len(log) != len(ref) {
			t.Fatalf("log length mismatch: %d vs %d", len(log), len(ref))
		}
		for i := range ref {
			if log[i] != ref[i] {
				t.Fatalf("log divergence at %d", i)
			}
		}
	}
}

func TestSurvivesMinorityCrash(t *testing.T) {
	c := newTestCluster(t, 5, 3)
	inj := sim.NewInjector(c.Net, c.Crashables())
	c.RunFor(1 * sim.Second)
	lead := c.Leader()
	// Crash two non-leader nodes (minority).
	crashed := 0
	for i := 0; i < 5 && crashed < 2; i++ {
		if i != lead {
			inj.CrashSet([]int{i})
			crashed++
		}
	}
	c.DriveWorkload(c.Sched.Now()+10*sim.Millisecond, 50*sim.Millisecond, 20)
	c.RunFor(5 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := c.Rec.CommonPrefix(c.AliveCorrect()); got != 20 {
		t.Errorf("correct nodes committed %d of 20 (%s)", got, c.Rec.Summary())
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	c := newTestCluster(t, 5, 4)
	inj := sim.NewInjector(c.Net, c.Crashables())
	c.RunFor(1 * sim.Second)
	first := c.Leader()
	if first < 0 {
		t.Fatal("no initial leader")
	}
	c.ProposeAny("before-crash")
	c.RunFor(500 * sim.Millisecond)
	inj.CrashSet([]int{first})
	c.RunFor(3 * sim.Second)
	second := c.Leader()
	if second < 0 || second == first {
		t.Fatalf("failover did not happen: leader %d -> %d", first, second)
	}
	if !c.Nodes[second].Propose("after-crash") {
		t.Fatal("new leader rejected proposal")
	}
	c.RunFor(2 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := c.Rec.CommonPrefix(c.AliveCorrect()); got != 2 {
		t.Errorf("committed prefix %d, want 2 (%s)", got, c.Rec.Summary())
	}
}

func TestMajorityCrashBlocksProgressButStaysSafe(t *testing.T) {
	c := newTestCluster(t, 5, 5)
	inj := sim.NewInjector(c.Net, c.Crashables())
	c.RunFor(1 * sim.Second)
	c.ProposeAny("op-0")
	c.RunFor(500 * sim.Millisecond)
	before := c.Rec.CommonPrefix(c.AliveCorrect())
	inj.CrashSet([]int{0, 1, 2}) // majority down
	c.DriveWorkload(c.Sched.Now()+10*sim.Millisecond, 50*sim.Millisecond, 10)
	c.RunFor(5 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	after := c.Rec.CommonPrefix(c.AliveCorrect())
	if after > before {
		t.Errorf("progress despite majority crash: %d -> %d", before, after)
	}
	if c.Leader() != -1 {
		// A stale leader may still think it leads briefly, but it cannot
		// commit; ensure nothing new committed (checked above). Election
		// terms keep rising though: verify no commit growth is the real bar.
		t.Logf("stale leader view: %d", c.Leader())
	}
}

func TestRestartRecoversPersistentState(t *testing.T) {
	c := newTestCluster(t, 3, 6)
	inj := sim.NewInjector(c.Net, c.Crashables())
	c.RunFor(1 * sim.Second)
	for i := 0; i < 5; i++ {
		c.ProposeAny(fmt.Sprintf("op-%d", i))
		c.RunFor(200 * sim.Millisecond)
	}
	victim := (c.Leader() + 1) % 3
	termBefore := c.Nodes[victim].Term()
	logBefore := len(c.Nodes[victim].ps.log)
	inj.CrashSet([]int{victim})
	c.RunFor(1 * sim.Second)
	c.Net.SetDown(victim, false)
	c.Nodes[victim].Restart()
	if c.Nodes[victim].Term() < termBefore {
		t.Error("term regressed across restart")
	}
	if len(c.Nodes[victim].ps.log) < logBefore {
		t.Error("log lost across restart")
	}
	c.RunFor(2 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	// Restarted node catches up fully.
	if got := len(c.Rec.Committed(victim)); got != 5 {
		t.Errorf("restarted node committed %d of 5", got)
	}
}

func TestPartitionedMinorityCannotCommit(t *testing.T) {
	c := newTestCluster(t, 5, 7)
	c.RunFor(1 * sim.Second)
	lead := c.Leader()
	// Isolate the leader with one follower (minority side).
	labels := make([]int, 5)
	labels[lead] = 1
	labels[(lead+1)%5] = 1
	c.Net.Partition(labels)
	c.Nodes[lead].Propose("minority-op")
	c.RunFor(3 * sim.Second)
	// Majority side elects a new leader and can commit.
	newLead := -1
	for _, n := range c.Nodes {
		if labels[n.ID()] == 0 && n.Role() == Leader {
			newLead = n.ID()
		}
	}
	if newLead < 0 {
		t.Fatal("majority side did not elect a leader")
	}
	c.Nodes[newLead].Propose("majority-op")
	c.RunFor(2 * sim.Second)
	c.Net.Partition(nil)
	c.RunFor(3 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatalf("split brain: %v", err)
	}
	// The majority op won; committed everywhere after healing.
	for i := 0; i < 5; i++ {
		log := c.Rec.Committed(i)
		if len(log) == 0 || log[0] != "majority-op" {
			t.Errorf("node %d log %v, want [majority-op ...]", i, log)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (string, uint64) {
		c := newTestCluster(t, 5, 99)
		c.DriveWorkload(500*sim.Millisecond, 50*sim.Millisecond, 10)
		c.RunFor(5 * sim.Second)
		return c.Rec.Summary(), c.Sched.Steps()
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Errorf("non-deterministic: %q/%d vs %q/%d", s1, n1, s2, n2)
	}
}

func TestFlexibleQuorumCommit(t *testing.T) {
	// QPer=4, QVC=2 over N=5 satisfies Theorem 3.2 (5 < 4+2 fails! 5 < 6 ok;
	// 5 < 2*2 fails) — so use QVC=3: 5 < 7 and 5 < 6. Commit needs 4 acks.
	cfg := Config{N: 5, QPer: 4, QVC: 3}
	c, err := NewCluster(cfg, 11, sim.FixedDelay{D: 2 * sim.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	inj := sim.NewInjector(c.Net, c.Crashables())
	c.RunFor(1 * sim.Second)
	// With two nodes down, only 3 alive < QPer=4: no commit may happen.
	lead := c.Leader()
	downCount := 0
	for i := 0; i < 5 && downCount < 2; i++ {
		if i != lead {
			inj.CrashSet([]int{i})
			downCount++
		}
	}
	c.Nodes[lead].Propose("blocked-op")
	c.RunFor(3 * sim.Second)
	if got := c.Rec.MaxSlot(); got != -1 {
		t.Errorf("commit happened with only 3 < QPer=4 alive (max slot %d)", got)
	}
	// Recover one node: 4 alive = QPer, commit proceeds.
	for i := 0; i < 5; i++ {
		if !c.Nodes[i].Alive() {
			c.Net.SetDown(i, false)
			c.Nodes[i].Restart()
			break
		}
	}
	c.RunFor(3 * sim.Second)
	if c.Leader() == -1 {
		t.Fatal("no leader after recovery")
	}
	c.ProposeAny("unblocked-op")
	c.RunFor(2 * sim.Second)
	if err := c.Rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := c.Rec.MaxSlot(); got < 0 {
		t.Error("no commit after quorum recovered")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: 3, QPer: 4},
		{N: 3, QVC: -1},
		{N: 3, ElectionTimeoutMin: 100, ElectionTimeoutMax: 50, HeartbeatInterval: 10},
		{N: 3, ElectionTimeoutMin: 100, ElectionTimeoutMax: 200, HeartbeatInterval: 150},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
	if err := (Config{N: 3}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewNodeIDRange(t *testing.T) {
	sched := sim.NewScheduler(1)
	net := sim.NewNetwork(sched, 3, sim.FixedDelay{D: 1}, 0)
	if _, err := NewNode(3, Config{N: 3}, net, nil); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := NewNode(-1, Config{N: 3}, net, nil); err == nil {
		t.Error("negative id accepted")
	}
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Error("role strings wrong")
	}
	if Role(9).String() == "" {
		t.Error("unknown role must still render")
	}
}

func TestProposeRejectedByFollower(t *testing.T) {
	c := newTestCluster(t, 3, 12)
	c.RunFor(1 * sim.Second)
	lead := c.Leader()
	for _, n := range c.Nodes {
		if n.ID() != lead && n.Propose("nope") {
			t.Error("follower accepted a proposal")
		}
	}
	dead := c.Nodes[lead]
	dead.Crash()
	if dead.Propose("dead-op") {
		t.Error("crashed node accepted a proposal")
	}
}
