package dist

import (
	"math"
	"math/rand"
	"testing"
)

// randomTriStates draws a fleet of valid tri-states with total fault mass
// up to maxFail per node.
func randomTriStatesCapped(rng *rand.Rand, n int, maxFail float64) []TriState {
	out := make([]TriState, n)
	for i := range out {
		f := rng.Float64() * maxFail
		split := rng.Float64()
		out[i] = TriState{PCrash: f * split, PByz: f * (1 - split)}
	}
	return out
}

func maxJointDiff(t *testing.T, a, b *JointCrashByz) float64 {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("table sizes differ: %d vs %d", a.N(), b.N())
	}
	var worst float64
	for c := 0; c <= a.N(); c++ {
		for bz := 0; bz+c <= a.N(); bz++ {
			if d := math.Abs(a.PMF(c, bz) - b.PMF(c, bz)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestPoissonBinomialResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d PoissonBinomial
	// Grow, shrink, regrow: the workspace must behave identically to a
	// fresh build at every size.
	for _, n := range []int{5, 12, 3, 12, 0, 8} {
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		d.Reset(probs)
		fresh := NewPoissonBinomial(probs)
		if d.N() != n {
			t.Fatalf("N=%d after Reset of %d trials", d.N(), n)
		}
		for k := 0; k <= n; k++ {
			if d.PMF(k) != fresh.PMF(k) {
				t.Fatalf("n=%d k=%d: reset %v != fresh %v", n, k, d.PMF(k), fresh.PMF(k))
			}
		}
	}
}

func TestPoissonBinomialExtendWithMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	probs := make([]float64, 15)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	var d PoissonBinomial
	d.Reset(nil)
	for i, p := range probs {
		d.ExtendWith(p)
		fresh := NewPoissonBinomial(probs[:i+1])
		for k := 0; k <= i+1; k++ {
			if d.PMF(k) != fresh.PMF(k) {
				t.Fatalf("after %d extends, k=%d: %v != %v", i+1, k, d.PMF(k), fresh.PMF(k))
			}
		}
	}
}

func TestJointResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var d JointCrashByz
	for _, n := range []int{4, 11, 2, 11, 0, 7} {
		nodes := randomTriStatesCapped(rng, n, 0.4)
		d.Reset(nodes)
		fresh := NewJointCrashByz(nodes)
		if diff := maxJointDiff(t, &d, fresh); diff != 0 {
			t.Fatalf("n=%d: reset differs from fresh by %g", n, diff)
		}
	}
}

func TestLeaveOneOutWithoutMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// maxFail 0.4 keeps every node above the deflation threshold; 0.9
	// exercises the rebuild fallback too.
	for _, maxFail := range []float64{0.05, 0.4, 0.9} {
		for _, n := range []int{1, 2, 5, 9, 14} {
			nodes := randomTriStatesCapped(rng, n, maxFail)
			var l LeaveOneOut
			l.Reset(nodes)
			for i := 0; i < n; i++ {
				rest := append(append([]TriState(nil), nodes[:i]...), nodes[i+1:]...)
				fresh := NewJointCrashByz(rest)
				if diff := maxJointDiff(t, l.Without(i), fresh); diff > 1e-12 {
					t.Fatalf("maxFail=%g n=%d without(%d): differs from fresh by %g", maxFail, n, i, diff)
				}
			}
		}
	}
}

func TestLeaveOneOutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nodes := randomTriStatesCapped(rng, 9, 0.4)
	var l LeaveOneOut
	l.Reset(nodes)
	full := NewJointCrashByz(nodes)
	for i := range nodes {
		// Remove node i, then convolve it back in: counts are
		// exchangeable, so the round-trip must land back on the full table.
		var j JointCrashByz
		ConvolveJointCrashByzInto(&j, l.Without(i), NewJointCrashByz(l.nodes[i:i+1]))
		if diff := maxJointDiff(t, &j, full); diff > 1e-12 {
			t.Fatalf("remove/re-add round-trip of node %d drifts by %g", i, diff)
		}
	}
}

func TestLeaveOneOutReset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var l LeaveOneOut
	for _, n := range []int{3, 8, 2} {
		nodes := randomTriStatesCapped(rng, n, 0.3)
		l.Reset(nodes)
		if len(l.nodes) != n {
			t.Fatalf("N=%d after Reset of %d", len(l.nodes), n)
		}
		if diff := maxJointDiff(t, l.Full(), NewJointCrashByz(nodes)); diff != 0 {
			t.Fatalf("full table differs by %g", diff)
		}
	}
}

// TestWorkspaceZeroAllocs pins the tentpole claim: warmed DP workspaces
// run their steady-state operations without allocating.
func TestWorkspaceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	probs := make([]float64, 20)
	for i := range probs {
		probs[i] = rng.Float64() * 0.3
	}
	nodes := randomTriStatesCapped(rng, 20, 0.3)

	var pb PoissonBinomial
	pb.Reset(probs)
	if n := testing.AllocsPerRun(100, func() { pb.Reset(probs) }); n != 0 {
		t.Errorf("PoissonBinomial.Reset allocates %v/op", n)
	}

	var joint JointCrashByz
	joint.Reset(nodes)
	if n := testing.AllocsPerRun(100, func() { joint.Reset(nodes) }); n != 0 {
		t.Errorf("JointCrashByz.Reset allocates %v/op", n)
	}

	var l LeaveOneOut
	l.Reset(nodes)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		l.Without(i % len(nodes))
		i++
	}); n != 0 {
		t.Errorf("LeaveOneOut.Without allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Reset(nodes) }); n != 0 {
		t.Errorf("LeaveOneOut.Reset allocates %v/op", n)
	}

	var rp RegionPass
	regions := [3]Region{{Byz: 0, Faulty: 20}, {Byz: 20, Faulty: 9}, {Byz: 2, Faulty: 9}}
	rp.Reset(nodes, regions)
	if n := testing.AllocsPerRun(100, func() { rp.Reset(nodes, regions) }); n != 0 {
		t.Errorf("RegionPass.Reset allocates %v/op", n)
	}

	// Every shape, and a node under the deflation threshold (the re-fold).
	slow := append(append([]TriState(nil), nodes...), TriState{PCrash: 0.2, PByz: 0.1})
	var rl RegionLeaveOneOut
	for _, r := range []Region{{Byz: -1}, {Byz: 21, Faulty: 9}, {Byz: 2, Faulty: 21}, {Byz: 2, Faulty: 9}} {
		rl.Reset(slow, r)
		for i := range slow {
			rl.Edges(i)
		}
		if n := testing.AllocsPerRun(100, func() { rl.Reset(slow, r) }); n != 0 {
			t.Errorf("RegionLeaveOneOut.Reset(%+v) allocates %v/op", r, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			rl.Edges(i % len(slow))
			i++
		}); n != 0 {
			t.Errorf("RegionLeaveOneOut.Edges over %+v allocates %v/op", r, n)
		}
	}
}

func TestJointBuildCounter(t *testing.T) {
	nodes := randomTriStatesCapped(rand.New(rand.NewSource(15)), 6, 0.3)
	before := JointBuilds()
	NewJointCrashByz(nodes)
	var l LeaveOneOut
	l.Reset(nodes)
	l.Without(2)
	var rp RegionPass
	rp.Reset(nodes, [3]Region{{Byz: 0, Faulty: 6}, {Byz: 6, Faulty: 3}, {Byz: 1, Faulty: 3}})
	if got := JointBuilds() - before; got != 3 {
		t.Errorf("counted %d builds, want 3 (a region pass is one, a deflation none)", got)
	}

	before = JointBuilds()
	var rl RegionLeaveOneOut
	rl.Reset(nodes, Region{Byz: 1, Faulty: 3})
	for i := range nodes {
		rl.Edges(i)
	}
	if got := JointBuilds() - before; got != 1 {
		t.Errorf("a region leave-one-out and %d edge reads counted %d builds, want 1", len(nodes), got)
	}
}
