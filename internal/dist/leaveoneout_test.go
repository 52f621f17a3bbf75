package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// LeaveOneOut maintains the joint (#crashed, #Byzantine) distribution of a
// fleet together with every "all nodes but one" sub-distribution. It was
// the optimizer's leave-one-out until the gradient moved onto one region's
// table (RegionLeaveOneOut), and is kept as that kernel's oracle: node i
// is deflated out of the full table by back-substitution in increasing
// (c, b) order,
//
//	J₋ᵢ[c][b] = (full[c][b] - J₋ᵢ[c-1][b]·pc - J₋ᵢ[c][b-1]·pb) / pok,
//
// or, while pok is below looMinStay, rebuilt from scratch. The table
// returned by Without is owned by the LeaveOneOut and valid only until the
// next Without or Reset call.
type LeaveOneOut struct {
	nodes []TriState
	rest  []TriState // scratch for the rebuild fallback
	full  JointCrashByz
	loo   JointCrashByz
}

// Reset rebuilds the full joint table for a new fleet, reusing every
// buffer. This is the structure's one O(n^3) DP build.
func (l *LeaveOneOut) Reset(nodes []TriState) {
	l.nodes = append(l.nodes[:0], nodes...)
	l.full.Reset(l.nodes)
}

// Full returns the joint table over all nodes. The table is owned by the
// LeaveOneOut and valid until the next Reset.
func (l *LeaveOneOut) Full() *JointCrashByz { return &l.full }

// Without returns the joint table over every node except i, by O(n^2)
// deflation (or an O(n^3) rebuild when node i's correctness probability
// sits below the stability threshold). The returned table is owned by the
// LeaveOneOut and valid until the next Without or Reset call.
func (l *LeaveOneOut) Without(i int) *JointCrashByz {
	pc, pb, pok := clampTri(l.nodes[i])
	n := len(l.nodes)
	if pok < looMinStay {
		l.rest = append(l.rest[:0], l.nodes[:i]...)
		l.rest = append(l.rest, l.nodes[i+1:]...)
		l.loo.Reset(l.rest)
		return &l.loo
	}
	m := n - 1 // leave-one-out fleet size
	wf := n + 1
	w := m + 1
	l.loo.band.resetDense(m)
	out := l.loo.p
	for c := 0; c <= m; c++ {
		for b := 0; b+c <= m; b++ {
			v := l.full.p[c*wf+b]
			if c > 0 {
				v -= out[(c-1)*w+b] * pc
			}
			if b > 0 {
				v -= out[c*w+b-1] * pb
			}
			out[c*w+b] = v / pok
		}
	}
	l.loo.n = m
	return &l.loo
}

// jointEdges sums a joint table over region r's faulty edge {c + b = κ,
// b <= β} and Byzantine edge {b = β, c + b < κ}, cell by cell, c ascending.
func jointEdges(d *JointCrashByz, r Region) (faulty, byz float64) {
	for c := max(0, r.Faulty-r.Byz); c <= r.Faulty; c++ {
		faulty += d.PMF(c, r.Faulty-c)
	}
	for c := 0; r.Byz >= 0 && c < r.Faulty-r.Byz; c++ {
		byz += d.PMF(c, r.Byz)
	}
	return faulty, byz
}

// freshEdges is the region oracle: a fresh fold of the nodes other than i
// into r's table in the kernel's shape (the one r takes over all n nodes),
// read at the two edges.
func freshEdges(nodes []TriState, r Region, i int) (faulty, byz float64) {
	var t regionTable
	t.reset(r, len(nodes))
	for j, node := range nodes {
		if j != i {
			t.fold(clampTri(node))
		}
	}
	f, b, _, _ := t.edges(r, len(nodes), t.p)
	return f, b
}

// looEdgeNodes are edgeNodes plus a node under the deflation threshold in
// every shape (pok 0.65, 1 − pb 0.7): p = 0, p_crash + p_byz = 1,
// p_byz = 1 and p_crash = 1 besides.
var looEdgeNodes = append(append([]TriState(nil), edgeNodes...), TriState{PCrash: 0.05, PByz: 0.3})

// edgeErr tracks the largest relative and absolute errors of edge sums
// against an oracle's.
type edgeErr struct{ rel, abs float64 }

// check folds one pair of edge sums into e and reports whether each edge
// is within 1e-12 relative of the oracle, or, when abs > 0, within abs.
func (e *edgeErr) check(f, b, wf, wb, abs float64) bool {
	ok := true
	for _, p := range [2][2]float64{{f, wf}, {b, wb}} {
		d := math.Abs(p[0] - p[1])
		e.abs = max(e.abs, d)
		if d > 0 {
			e.rel = max(e.rel, d/math.Abs(p[1]))
		}
		ok = ok && (d <= 1e-12*math.Abs(p[1]) || d <= abs)
	}
	return ok
}

// TestRegionLeaveOneOutMatchesFresh pins the region leave-one-out, on one
// reused workspace, against a fresh region fold over the other n − 1 nodes
// (== on the re-fold fallback, 1e-12 relative on a deflation) and the
// joint table over those nodes (1e-12 relative), and its mass against
// RegionPass.Mass with ==. The joint oracle's Without(i) is checked on the
// same edges to 1e-12 relative or 1e-15 absolute: it deflates without an
// error bound, so on deep-tail edges only its absolute error is small.
// Regions cover every shape: empty, clipped by n, β ≥ κ, κ ≥ n, and general
// tables of several columns; fleets mix in the edge tri-states and deep
// tails reached mostly through one node, where the bound forces re-folds.
func TestRegionLeaveOneOutMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var l RegionLeaveOneOut
	var rp RegionPass
	var joint LeaveOneOut
	var fresh, full, without edgeErr
	var deflations, rebuilds int
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(24)
		if iter%40 == 0 {
			n = 100 + rng.Intn(40)
		}
		nodes := randomTriStatesCapped(rng, n, []float64{0.05, 0.25, 0.6}[iter%3])
		if iter%2 == 0 {
			for i := range nodes {
				if rng.Intn(5) == 0 {
					nodes[i] = looEdgeNodes[rng.Intn(len(looEdgeNodes))]
				}
			}
		}
		joint.Reset(nodes)
		k := rng.Intn(n)
		regions := []Region{
			{Byz: -1, Faulty: k}, {Byz: k, Faulty: -1}, // empty
			{Byz: n + 2, Faulty: n + 5}, {Byz: n, Faulty: n}, // clipped by n
			{Byz: k + rng.Intn(3), Faulty: k},           // β ≥ κ
			{Byz: rng.Intn(n), Faulty: n + rng.Intn(3)}, // κ ≥ n
			{Byz: min(k, rng.Intn(4)), Faulty: k},       // general, up to four columns
			{Byz: 0, Faulty: 0},
			{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1},
		}
		for _, r := range regions {
			name := fmt.Sprintf("iter %d n=%d region %+v", iter, n, r)
			l.Reset(nodes, r)
			rp.Reset(nodes, [3]Region{r, r, r})
			if got, want := l.Mass(), rp.Mass(0); got != want {
				t.Fatalf("%s: mass %.17g, RegionPass %.17g", name, got, want)
			}
			for i := range nodes {
				before := looRebuilds.Load()
				f, b := l.Edges(i)
				rebuilt := looRebuilds.Load() != before
				ff, fb := freshEdges(nodes, r, i)
				if rebuilt {
					rebuilds++
					if f != ff || b != fb {
						t.Fatalf("%s node %d: rebuilt edges (%.17g, %.17g), fresh fold (%.17g, %.17g)", name, i, f, b, ff, fb)
					}
				} else {
					deflations++
					if !fresh.check(f, b, ff, fb, 0) {
						t.Fatalf("%s node %d: deflated edges (%.17g, %.17g), fresh fold (%.17g, %.17g)", name, i, f, b, ff, fb)
					}
				}
				rest := append(append([]TriState(nil), nodes[:i]...), nodes[i+1:]...)
				jf, jb := jointEdges(NewJointCrashByz(rest), r)
				if !full.check(f, b, jf, jb, 0) {
					t.Fatalf("%s node %d: edges (%.17g, %.17g), joint table (%.17g, %.17g)", name, i, f, b, jf, jb)
				}
				wf, wb := jointEdges(joint.Without(i), r)
				if !without.check(f, b, wf, wb, 1e-15) {
					t.Fatalf("%s node %d: edges (%.17g, %.17g), joint Without (%.17g, %.17g)", name, i, f, b, wf, wb)
				}
			}
		}
	}
	if deflations == 0 || rebuilds == 0 {
		t.Fatalf("%d deflations, %d rebuilds: both paths must be exercised", deflations, rebuilds)
	}
	t.Logf("%d deflations, %d rebuilds; largest relative, absolute error: fresh region fold %.3g, %.3g; joint table %.3g, %.3g; joint Without %.3g, %.3g",
		deflations, rebuilds, fresh.rel, fresh.abs, full.rel, full.abs, without.rel, without.abs)
}
