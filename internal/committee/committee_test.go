package committee

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func heteroFleet() core.Fleet {
	fleet := core.UniformCrashFleet(10, 0.08)
	fleet[2].Profile.PCrash = 0.01
	fleet[5].Profile.PCrash = 0.005
	fleet[7].Profile.PCrash = 0.02
	return fleet
}

func TestBestPicksMostReliable(t *testing.T) {
	fleet := heteroFleet()
	c, err := Best(fleet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "{2,5,7}/10" {
		t.Errorf("Best(3) = %v, want {2,5,7}", c)
	}
	all, _ := Best(fleet, 10)
	if all.Count() != 10 {
		t.Error("Best(n) must return everything")
	}
	none, _ := Best(fleet, 0)
	if none.Count() != 0 {
		t.Error("Best(0) must be empty")
	}
	if _, err := Best(fleet, 11); err == nil {
		t.Error("k > n must error")
	}
	if _, err := Best(fleet, -1); err == nil {
		t.Error("k < 0 must error")
	}
}

func TestFailureTailMatchesBinomial(t *testing.T) {
	fleet := core.UniformCrashFleet(10, 0.08)
	c, _ := Best(fleet, 5)
	for th := 0; th <= 5; th++ {
		got := FailureTail(c, fleet, th)
		want := dist.BinomTailGE(5, 0.08, th)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("tail(%d) = %v, want %v", th, got, want)
		}
	}
}

func TestMinSizeForBudget(t *testing.T) {
	fleet := heteroFleet()
	// One-fault budget with a loose epsilon: small committee suffices.
	c, err := MinSizeForBudget(fleet, 1, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() < 2 {
		t.Errorf("committee size %d below budget+1", c.Count())
	}
	if FailureTail(c, fleet, 2) > 1e-3 {
		t.Error("returned committee violates epsilon")
	}
	// A smaller committee of the same policy must violate it (minimality).
	if c.Count() > 2 {
		smaller, _ := Best(fleet, c.Count()-1)
		if FailureTail(smaller, fleet, 2) <= 1e-3 {
			t.Error("committee not minimal")
		}
	}
	// Impossible epsilon.
	if _, err := MinSizeForBudget(fleet, 0, 1e-12); err == nil {
		t.Error("impossible budget must error")
	}
}

func TestLeader(t *testing.T) {
	fleet := heteroFleet()
	l, err := Leader(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if l != 5 {
		t.Errorf("leader = %d, want 5 (p=0.005)", l)
	}
	if _, err := Leader(core.Fleet{}); err == nil {
		t.Error("empty fleet must error")
	}
}

func TestReputation(t *testing.T) {
	fleet := heteroFleet()
	r, err := NewReputation(fleet, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Initial leader follows the prior.
	if r.Leader() != 5 {
		t.Errorf("initial leader = %d", r.Leader())
	}
	// Node 5 misbehaves repeatedly; node 2 performs.
	for i := 0; i < 10; i++ {
		r.Observe(5, false)
		r.Observe(2, true)
	}
	if r.Leader() != 2 {
		t.Errorf("leader after observations = %d, want 2", r.Leader())
	}
	if r.scores[5] > 0.01 {
		t.Errorf("failed node score %v should have decayed", r.scores[5])
	}
}

func TestReputationValidation(t *testing.T) {
	fleet := heteroFleet()
	for _, d := range []float64{0, -0.5, 1.5} {
		if _, err := NewReputation(fleet, d); err == nil {
			t.Errorf("decay %v accepted", d)
		}
	}
	if _, err := NewReputation(fleet, 1); err != nil {
		t.Errorf("decay 1 rejected: %v", err)
	}
}

func TestSampleVRFDeterministic(t *testing.T) {
	a, err := SampleVRF([]byte("round-42"), 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SampleVRF([]byte("round-42"), 100, 10)
	if a.String() != b.String() {
		t.Error("same seed must give same committee")
	}
	c, _ := SampleVRF([]byte("round-43"), 100, 10)
	if a.String() == c.String() {
		t.Error("different seeds should give different committees")
	}
	if a.Count() != 10 {
		t.Errorf("committee size %d", a.Count())
	}
}

func TestSampleVRFBounds(t *testing.T) {
	if _, err := SampleVRF([]byte("x"), 5, 6); err == nil {
		t.Error("k > n must error")
	}
	if _, err := SampleVRF([]byte("x"), 5, -1); err == nil {
		t.Error("k < 0 must error")
	}
	full, err := SampleVRF([]byte("x"), 5, 5)
	if err != nil || full.Count() != 5 {
		t.Errorf("k=n sample = %v (%v)", full, err)
	}
	empty, err := SampleVRF([]byte("x"), 5, 0)
	if err != nil || empty.Count() != 0 {
		t.Errorf("k=0 sample = %v (%v)", empty, err)
	}
}

func TestSampleVRFRoughlyUniform(t *testing.T) {
	// Each node should appear in ~k/n of committees across many seeds.
	const n, k, rounds = 20, 5, 2000
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		seed := []byte{byte(r), byte(r >> 8), 0xAA}
		s, err := SampleVRF(seed, n, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Members() {
			counts[m]++
		}
	}
	want := float64(rounds) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Errorf("node %d appeared %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestMinSizeForBudgetNegativeBudget(t *testing.T) {
	fleet := core.UniformCrashFleet(5, 0.05)
	if _, err := MinSizeForBudget(fleet, -1, 1e-4); err == nil {
		t.Error("negative budget accepted")
	}
}
