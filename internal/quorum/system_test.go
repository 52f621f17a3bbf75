package quorum

import (
	"math"
	"testing"
)

func TestMajoritySizes(t *testing.T) {
	cases := []struct{ n, k int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 4}, {9, 5}, {100, 51}}
	for _, c := range cases {
		m := Majority(c.n)
		if m.MinSize() != c.k {
			t.Errorf("Majority(%d).MinSize()=%d, want %d", c.n, m.MinSize(), c.k)
		}
	}
}

func TestThresholdIsQuorum(t *testing.T) {
	q := Threshold{Nodes: 5, K: 3}
	if q.IsQuorum(SetOf(5, 0, 1)) {
		t.Error("2 nodes accepted as 3-quorum")
	}
	if !q.IsQuorum(SetOf(5, 0, 1, 2)) {
		t.Error("3 nodes rejected")
	}
	if !q.IsQuorum(SetOf(5, 0, 1, 2, 3, 4)) {
		t.Error("full set rejected")
	}
	if q.N() != 5 {
		t.Error("N wrong")
	}
}

func TestMinIntersectionThresholdClosedForm(t *testing.T) {
	cases := []struct {
		n, ka, kb, want int
	}{
		{3, 2, 2, 1},  // Raft N=3 majorities
		{5, 3, 3, 1},  // Raft N=5
		{4, 3, 3, 2},  // PBFT N=4 quorums intersect in 2
		{5, 4, 4, 3},  // PBFT N=5
		{7, 5, 5, 3},  // PBFT N=7
		{10, 5, 5, 0}, // half-size quorums need not intersect
	}
	for _, c := range cases {
		a := Threshold{Nodes: c.n, K: c.ka}
		b := Threshold{Nodes: c.n, K: c.kb}
		if got := MinIntersection(a, b); got != c.want {
			t.Errorf("MinIntersection(%d,%d over %d) = %d, want %d", c.ka, c.kb, c.n, got, c.want)
		}
	}
}

func TestBruteForceMatchesClosedForm(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for ka := 1; ka <= n; ka++ {
			for kb := 1; kb <= n; kb++ {
				a := Threshold{Nodes: n, K: ka}
				b := Threshold{Nodes: n, K: kb}
				want := MinIntersection(a, b)
				got := bruteMinIntersection(a, b)
				if got != want {
					t.Errorf("n=%d ka=%d kb=%d: brute=%d closed=%d", n, ka, kb, got, want)
				}
			}
		}
	}
}

func TestAlwaysIntersect(t *testing.T) {
	if !AlwaysIntersect(Majority(5), Majority(5)) {
		t.Error("majorities must always intersect")
	}
	if AlwaysIntersect(Threshold{Nodes: 10, K: 5}, Threshold{Nodes: 10, K: 5}) {
		t.Error("two half-quorums must not always intersect")
	}
}

func TestReliabilityAware(t *testing.T) {
	reliable := SetOf(7, 0, 1, 2)
	ra := ReliabilityAware{Base: Majority(7), Reliable: reliable, MinReliable: 1}
	// A majority of only unreliable nodes is not a quorum any more.
	if ra.IsQuorum(SetOf(7, 3, 4, 5, 6)) {
		t.Error("all-unreliable majority accepted")
	}
	if !ra.IsQuorum(SetOf(7, 0, 3, 4, 5)) {
		t.Error("majority with one reliable node rejected")
	}
	// Too small even with reliable nodes.
	if ra.IsQuorum(SetOf(7, 0, 1, 2)) {
		t.Error("sub-majority accepted")
	}
	if ra.MinSize() != 4 {
		t.Errorf("MinSize=%d, want 4", ra.MinSize())
	}
	if ra.N() != 7 {
		t.Error("N wrong")
	}
}

func TestReliabilityAwareUnsatisfiable(t *testing.T) {
	ra := ReliabilityAware{Base: Majority(3), Reliable: SetOf(3, 0), MinReliable: 2}
	if got := ra.MinSize(); got != 4 {
		t.Errorf("unsatisfiable MinSize=%d, want n+1", got)
	}
}

func TestReliabilityAwareMinReliableDominates(t *testing.T) {
	ra := ReliabilityAware{Base: Threshold{Nodes: 9, K: 2}, Reliable: SetOf(9, 0, 1, 2, 3), MinReliable: 3}
	if got := ra.MinSize(); got != 3 {
		t.Errorf("MinSize=%d, want 3 (MinReliable dominates base K=2)", got)
	}
}

func TestReliabilityAwareIntersection(t *testing.T) {
	// Reliability-aware quorums still intersect when the base does.
	ra := ReliabilityAware{Base: Majority(7), Reliable: SetOf(7, 0, 1, 2), MinReliable: 1}
	if got := MinIntersection(ra, ra); got < 1 {
		t.Errorf("reliability-aware majorities should intersect, got %d", got)
	}
}

func TestMinIntersectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched N")
		}
	}()
	MinIntersection(Majority(3), Majority(5))
}

func TestSystemStrings(t *testing.T) {
	for _, s := range []System{
		Majority(5),
		ReliabilityAware{Base: Majority(3), Reliable: SetOf(3, 0), MinReliable: 1},
	} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

func TestProbContainsCorrect(t *testing.T) {
	// §3.2: five nodes at p=1% -> ten nines.
	got := ProbContainsCorrect(5, 0.01)
	want := 1 - 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Errorf("ProbContainsCorrect(5, 0.01) = %v, want %v", got, want)
	}
	if ProbContainsCorrect(0, 0.5) != 0 {
		t.Error("empty quorum cannot contain a correct node")
	}
	if ProbContainsCorrect(3, 0) != 1 {
		t.Error("p=0 must give certainty")
	}
}

func TestProbSetAllFail(t *testing.T) {
	probs := []float64{0.5, 0.1, 0.9, 0}
	s := SetOf(4, 0, 1)
	if got, want := ProbSetAllFail(s, probs), 0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("ProbSetAllFail=%v, want %v", got, want)
	}
	if got := ProbSetAllFail(SetOf(4, 3), probs); got != 0 {
		t.Errorf("set containing never-failing node: %v", got)
	}
	if got := ProbSetAllFail(NewSet(4), probs); got != 1 {
		t.Errorf("empty set vacuously all-fails: %v", got)
	}
}

func TestSampledIntersectionProb(t *testing.T) {
	// k > n/2 forces intersection.
	if got := SampledIntersectionProb(10, 6); got != 1 {
		t.Errorf("forced intersection = %v", got)
	}
	// Exact small case: n=4, k=2. Miss prob = C(2,2)/C(4,2) = 1/6.
	got := SampledIntersectionProb(4, 2)
	want := 1 - 1.0/6.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SampledIntersectionProb(4,2)=%v, want %v", got, want)
	}
	if SampledIntersectionProb(10, 0) != 0 {
		t.Error("k=0 cannot intersect")
	}
	// sqrt(n) sizing keeps intersection probability high as n grows.
	for _, n := range []int{25, 100, 400} {
		k := SqrtQuorumSize(n, 2)
		if p := SampledIntersectionProb(n, k); p < 0.97 {
			t.Errorf("n=%d k=%d: intersection prob %v too low", n, k, p)
		}
	}
}

func TestSqrtQuorumSizeBounds(t *testing.T) {
	if got := SqrtQuorumSize(100, 2); got != 20 {
		t.Errorf("SqrtQuorumSize(100,2)=%d", got)
	}
	if got := SqrtQuorumSize(4, 0.1); got != 1 {
		t.Errorf("floor at 1: %d", got)
	}
	if got := SqrtQuorumSize(4, 100); got != 4 {
		t.Errorf("cap at n: %d", got)
	}
}

func TestTargetedLossProb(t *testing.T) {
	// §4's 100-node example: |Q_per|=10, p=10%.
	anyK, loss := TargetedLossProb(100, 10, 0.1)
	if anyK < 0.45 || anyK > 0.65 {
		t.Errorf("P(>=10 faults) = %v, paper says ~50%%", anyK)
	}
	if math.Abs(loss-1e-10) > 1e-15 {
		t.Errorf("targeted loss = %v, paper says one in ten billion", loss)
	}
}
