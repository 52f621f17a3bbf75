package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func jointsEqual(t *testing.T, a, b *JointCrashByz, tol float64) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("joint sizes differ: %d vs %d", a.N(), b.N())
	}
	for c := 0; c <= a.N(); c++ {
		for bz := 0; bz+c <= a.N(); bz++ {
			if d := math.Abs(a.PMF(c, bz) - b.PMF(c, bz)); d > tol {
				t.Fatalf("PMF(%d,%d): %g vs %g (|Δ|=%g > %g)",
					c, bz, a.PMF(c, bz), b.PMF(c, bz), d, tol)
			}
		}
	}
}

func TestConvolveMatchesSingleDP(t *testing.T) {
	groupA := []TriState{{PCrash: 0.01}, {PCrash: 0.05, PByz: 0.002}, {PByz: 0.03}}
	groupB := []TriState{{PCrash: 0.2, PByz: 0.1}, {PCrash: 0.001}}
	conv := ConvolveJointCrashByz(NewJointCrashByz(groupA), NewJointCrashByz(groupB))
	whole := NewJointCrashByz(append(append([]TriState{}, groupA...), groupB...))
	jointsEqual(t, conv, whole, 1e-14)
}

func TestConvolveEmptyIsIdentity(t *testing.T) {
	nodes := []TriState{{PCrash: 0.1}, {PByz: 0.2}}
	d := NewJointCrashByz(nodes)
	empty := NewJointCrashByz(nil)
	jointsEqual(t, ConvolveJointCrashByz(d, empty), d, 0)
	jointsEqual(t, ConvolveJointCrashByz(empty, d), d, 0)
}

func TestConvolveMassIsOne(t *testing.T) {
	a := NewJointCrashByz([]TriState{{PCrash: 0.3, PByz: 0.3}, {PCrash: 0.49, PByz: 0.5}})
	b := NewJointCrashByz([]TriState{{PCrash: 0.01}, {PByz: 0.99}, {PCrash: 0.5, PByz: 0.25}})
	conv := ConvolveJointCrashByz(a, b)
	total := conv.SumWhere(func(int, int) bool { return true })
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("convolved mass = %g, want 1", total)
	}
}

func TestMixWeightsAndErrors(t *testing.T) {
	base := NewJointCrashByz([]TriState{{PCrash: 0.01}, {PCrash: 0.02}})
	elev := NewJointCrashByz([]TriState{{PCrash: 0.5}, {PCrash: 0.6}})
	same, err := MixJointCrashByz(base, base, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	jointsEqual(t, same, base, 1e-15)

	mixed, err := MixJointCrashByz(base, elev, 0.75, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= 2; c++ {
		for bz := 0; bz+c <= 2; bz++ {
			want := 0.75*base.PMF(c, bz) + 0.25*elev.PMF(c, bz)
			if got := mixed.PMF(c, bz); math.Abs(got-want) > 1e-15 {
				t.Fatalf("mixed PMF(%d,%d) = %g, want %g", c, bz, got, want)
			}
		}
	}

	if _, err := MixJointCrashByz(base, NewJointCrashByz([]TriState{{}}), 0.5, 0.5); err == nil {
		t.Fatal("mixing tables of different sizes must fail")
	}
}

// regionsClose fails unless got is within tol relative (and 1e-300
// absolute, past τ's reach) of want.
func regionsClose(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want+1e-300 {
		t.Fatalf("%s: %.17g, oracle %.17g (rel %.3g > %g)", what, got, want, math.Abs(got-want)/want, tol)
	}
}

// randomRegions draws three regions over n nodes: empty, clipped by n,
// Byz >= Faulty, Faulty >= n and general tables of several columns all
// come up.
func randomRegions(rng *rand.Rand, n int) [3]Region {
	var regions [3]Region
	for i := range regions {
		regions[i] = Region{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1}
	}
	return regions
}

// TestRegionAlgebraMatchesJoint pins the region algebra against the joint
// tables it replaced, the way the domain engine composes them: a fleet cut
// into an independent remainder and up to four groups, each a shocked
// domain whose base and elevated folds mix. The forward fold-through — the
// running table folded through each group's base and elevated nodes and
// mixed — is pinned to the joint oracle's mixtures and convolutions at
// 1e-13 relative. Then every group's forward table, passed through it, is
// dotted with the failure tables of the groups after it (ResetFailure and
// the backward fold-through) and pinned at 1e-13 relative to the
// positive-term joint sum Σ_{x∈r} X[x]·Σ_{x+y∉r} Y[y]. Random sizes and
// regions of every shape, the edge tri-states mixed in, one set of reused
// workspaces. Folding the groups one after another onto the remainder is
// one ResetGroup over the fleet, bit for bit.
func TestRegionAlgebraMatchesJoint(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var base, elev, whole, chained RegionPass
	worst := 0.0
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(24)
		if iter%60 == 0 {
			n = 100 + rng.Intn(60)
		}
		nodes := randomTriStatesCapped(rng, n, []float64{0.05, 0.4, 1}[iter%3])
		hot := randomTriStatesCapped(rng, n, 1)
		if iter%4 == 0 {
			for i := range nodes {
				if rng.Intn(4) == 0 {
					nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
				}
			}
		}
		regions := randomRegions(rng, n)
		name := fmt.Sprintf("iter %d n=%d regions %v", iter, n, regions)
		cuts := []int{0, rng.Intn(n + 1)}
		for g := 0; g < 4; g++ {
			cuts = append(cuts, cuts[len(cuts)-1]+rng.Intn(n-cuts[len(cuts)-1]+1))
		}
		cuts = append(cuts, n)
		groups := len(cuts) - 2
		weights := make([]float64, groups)
		for g := range weights {
			weights[g] = rng.Float64()
		}
		// through passes src through group g into dst, forward or backward.
		through := func(dst, src *RegionPass, g int, back bool) {
			lo, hi := cuts[g+1], cuts[g+2]
			for _, half := range []struct {
				t     *RegionPass
				nodes []TriState
			}{{&base, nodes[lo:hi]}, {&elev, hot[lo:hi]}} {
				half.t.Mix(src, src, 1, 0)
				if back {
					half.t.FoldBack(half.nodes)
				} else {
					half.t.Fold(half.nodes)
				}
			}
			dst.Mix(&base, &elev, 1-weights[g], weights[g])
		}
		// The groups' joint oracles, shocks mixed in.
		joints := make([]*JointCrashByz, groups)
		for g := range joints {
			lo, hi := cuts[g+1], cuts[g+2]
			jm, err := MixJointCrashByz(NewJointCrashByz(nodes[lo:hi]), NewJointCrashByz(hot[lo:hi]), 1-weights[g], weights[g])
			if err != nil {
				t.Fatal(err)
			}
			joints[g] = jm
		}

		// The forward tables F_0 … F_groups, and the joint oracle beside.
		fwd := make([]RegionPass, groups+1)
		fwd[0].ResetGroup(nodes[:cuts[1]], regions, n)
		prefix := []*JointCrashByz{NewJointCrashByz(nodes[:cuts[1]])}
		for g := 0; g < groups; g++ {
			through(&fwd[g+1], &fwd[g], g, false)
			checkRegionInvariant(t, name, &fwd[g+1])
			checkReach(t, name, &fwd[g+1], regions, n, cuts[g+2])
			prefix = append(prefix, ConvolveJointCrashByz(prefix[g], joints[g]))
		}
		for i, r := range regions {
			want := Clamp01(prefix[groups].RegionSum(r))
			regionsClose(t, fmt.Sprintf("%s region %d fold-through", name, i), fwd[groups].Mass(i), want, 1e-13)
			if want > 0 {
				worst = max(worst, math.Abs(fwd[groups].Mass(i)-want)/want)
			}
		}

		// Unmixed, the groups folded on in turn are the fleet's fold.
		chained.ResetGroup(nodes[:cuts[1]], regions, n)
		for g := 0; g < groups; g++ {
			chained.Fold(nodes[cuts[g+1]:cuts[g+2]])
		}
		whole.Reset(nodes, regions)
		for i := range whole.tabs {
			a, b := &chained.tabs[i], &whole.tabs[i]
			if !slices.Equal(a.p, b.p) || !slices.Equal(a.hi, b.hi) {
				t.Fatalf("%s table %d: ResetGroup then Fold differs from one ResetGroup", name, i)
			}
		}

		// The failure tables Ḡ_groups … Ḡ_1, and the suffix oracle beside:
		// F_{g+1}, group g's forward pass, against the groups after it.
		var back [2]RegionPass
		back[groups%2].ResetFailure(regions, n)
		suffix := NewJointCrashByz(nil)
		for g := groups - 1; g >= 0; g-- {
			g1 := &back[(g+1)%2]
			checkRegionInvariant(t, name, g1)
			for i, r := range regions {
				want := failureOracle(prefix[g+1], suffix, r)
				regionsClose(t, fmt.Sprintf("%s group %d region %d dot", name, g, i), fwd[g+1].Dot(g1, i), want, 1e-13)
			}
			through(&back[g%2], g1, g, true)
			suffix = ConvolveJointCrashByz(joints[g], suffix)
		}
	}
	t.Logf("largest relative error of a folded-through fleet's region mass: %.3g", worst)
}

// failureOracle is the positive-term form of a failure dot product over
// joint tables: Σ_{x∈r} X[x]·Σ_{x+y∉r} Y[y], compensated.
func failureOracle(x, y *JointCrashByz, r Region) float64 {
	var s KahanSum
	for cx := 0; cx <= x.N(); cx++ {
		for bx := 0; cx+bx <= x.N(); bx++ {
			if !r.Holds(cx, bx) || x.PMF(cx, bx) == 0 {
				continue
			}
			var out KahanSum
			for cy := 0; cy <= y.N(); cy++ {
				for by := 0; cy+by <= y.N(); by++ {
					if !r.Holds(cx+cy, bx+by) {
						out.Add(y.PMF(cy, by))
					}
				}
			}
			s.Add(x.PMF(cx, bx) * out.Sum())
		}
	}
	return s.Sum()
}

// checkReach asserts a k-node group's tables hold mass on no more cells
// than Region.Cells(n, k), the bound the domain engine's work estimate
// prices each operand at.
func checkReach(t *testing.T, name string, rp *RegionPass, regions [3]Region, n, k int) {
	t.Helper()
	for i := range rp.tabs {
		live := 0
		for _, v := range rp.tabs[i].p {
			if v != 0 {
				live++
			}
		}
		if reach := regions[i].Cells(n, k); live > reach {
			t.Fatalf("%s: a %d-node group holds mass on %d cells of region %d, Cells(%d, %d) = %d", name, k, live, i, n, k, reach)
		}
	}
}

// TestRegionMixAliasesAndLayouts pins Mix into one of its operands, and
// that operands of different layouts are refused loudly.
func TestRegionMixAliasesAndLayouts(t *testing.T) {
	regions := [3]Region{{Byz: 0, Faulty: 5}, {Byz: 5, Faulty: 2}, {Byz: 1, Faulty: 3}}
	var a, b, want RegionPass
	a.ResetGroup([]TriState{{PCrash: 0.1}, {PByz: 0.2}}, regions, 5)
	b.ResetGroup([]TriState{{PCrash: 0.6, PByz: 0.3}, {PCrash: 1}}, regions, 5)
	want.Mix(&a, &b, 0.25, 0.75)
	a.Mix(&a, &b, 0.25, 0.75)
	for i := range want.tabs {
		if !slices.Equal(a.tabs[i].p, want.tabs[i].p) || !slices.Equal(a.tabs[i].hi, want.tabs[i].hi) {
			t.Fatalf("table %d: mixed in place %v %v, into a third %v %v", i, a.tabs[i].p, a.tabs[i].hi, want.tabs[i].p, want.tabs[i].hi)
		}
	}
	var other RegionPass
	other.ResetGroup(nil, regions, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("mixing tables laid out for 5 and 9 nodes did not panic")
		}
	}()
	want.Mix(&a, &other, 0.5, 0.5)
}

// TestRegionSetIsMixCopy pins Set against Mix(src, src, 1, 0): the same
// cells and extents, into a target left dirty by a table of the same
// layout (whose live extents reach past src's) or of another one, with
// the whole buffer zero outside the extents afterwards.
func TestRegionSetIsMixCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var set, mixed, src, dirty RegionPass
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(40)
		var regions [3]Region
		for i := range regions {
			regions[i] = Region{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1}
		}
		src.ResetGroup(randomTriStatesCapped(rng, rng.Intn(n+1), 0.4), regions, n)
		if iter%2 == 0 {
			dirty.ResetGroup(randomTriStatesCapped(rng, n, 0.9), regions, n)
		} else {
			dirty.ResetGroup(randomTriStatesCapped(rng, rng.Intn(50), 0.9), [3]Region{{1, 7}, {9, 3}, {0, 50}}, 50)
		}
		set.Set(&dirty)
		set.Set(&src)
		mixed.Mix(&src, &src, 1, 0)
		name := fmt.Sprintf("iter %d n=%d regions %v", iter, n, regions)
		checkRegionInvariant(t, name, &set)
		for i := range set.tabs {
			g, w := &set.tabs[i], &mixed.tabs[i]
			if g.shape != w.shape || g.w != w.w || !slices.Equal(g.hi, w.hi) || !slices.Equal(g.p, w.p) {
				t.Fatalf("%s: table %d: Set %v %v, Mix copy %v %v", name, i, g.p, g.hi, w.p, w.hi)
			}
		}
	}
}
