package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// or, while pok is below jointMinStay, rebuilt from scratch. The table
// returned by Without is owned by the LeaveOneOut and valid only until the
// next Without or Reset call.
type LeaveOneOut struct {
	nodes []TriState
	rest  []TriState // scratch for the rebuild fallback
	full  JointCrashByz
	loo   JointCrashByz
}

// jointMinStay is the least correct share Without divides by.
const jointMinStay = 0.75

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
	if pok < jointMinStay {
		l.rest = append(l.rest[:0], l.nodes[:i]...)
		l.rest = append(l.rest, l.nodes[i+1:]...)
		l.loo.Reset(l.rest)
		return &l.loo
	}
	m := n - 1 // leave-one-out fleet size
	l.loo.resetDense(m)
	for c := 0; c <= m; c++ {
		for b := 0; b+c <= m; b++ {
			v := l.full.PMF(c, b)
			if c > 0 {
				v -= l.loo.PMF(c-1, b) * pc
			}
			if b > 0 {
				v -= l.loo.PMF(c, b-1) * pb
			}
			*l.loo.cell(c, b) = v / pok
		}
	}
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
// read at the two edges. Cells past n-1 nodes hold nothing, and only the
// faulty edge can lie there: a row over b has Faulty >= n, so no faulty
// edge, and Byz < n.
func freshEdges(nodes []TriState, r Region, i int) (faulty, byz float64) {
	var t regionTable
	n := len(nodes)
	t.reset(r, n)
	for j, node := range nodes {
		if j != i {
			t.fold(clampTri(node))
		}
	}
	switch t.shape {
	case shapeFaulty: // Byz >= Faulty, or both past n-1: no Byzantine edge
		if r.Faulty < n {
			faulty = t.p[r.Faulty]
		}
	case shapeByz:
		byz = t.p[r.Byz]
	case shapeGeneral: // Byz < Faulty < n
		for b := r.Byz; b >= 0; b-- { // c ascending
			faulty += t.p[b*t.w+r.Faulty-b]
		}
		for c := r.Byz * t.w; c < r.Byz*t.w+r.Faulty-r.Byz; c++ {
			byz += t.p[c]
		}
	}
	return faulty, byz
}

// looEdgeNodes are edgeNodes plus a node whose correct share is under the
// joint oracle's jointMinStay in every shape (pok 0.65, 1 − pb 0.7): p = 0,
// p_crash + p_byz = 1, p_byz = 1 and p_crash = 1 besides.
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

// deepTailRaft is 256 crash-only nodes, p_crash 0.005–0.205, with crash-only
// Raft's safe-and-live region over them, {b <= 0, c <= 127}: each node's
// faulty edge is the other nodes' mass on c = 127, near 1e-60, most of it
// reached through the nodes that fail most often.
func deepTailRaft() ([]TriState, Region) {
	rng := rand.New(rand.NewSource(256))
	nodes := make([]TriState, 256)
	for i := range nodes {
		nodes[i] = TriState{PCrash: 0.005 + 0.2*rng.Float64()}
	}
	return nodes, Region{Byz: 0, Faulty: 127}
}

// TestRegionLeaveOneOutMatchesFresh pins the region leave-one-out, on one
// reused workspace, against a fresh region fold over the other n − 1 nodes
// and the joint table over those nodes, both to 1e-12 relative, and its
// mass against RegionPass.Mass with ==. The joint oracle's Without(i) is
// checked on the same edges to 1e-12 relative or 1e-15 absolute: it
// deflates, so on deep-tail edges only its absolute error is small.
// Regions cover every shape: empty, clipped by n, β ≥ κ, κ ≥ n, and general
// tables of several columns; fleets mix in the edge tri-states, and the
// last leg is deepTailRaft, whose edges lie near 1e-60.
func TestRegionLeaveOneOutMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var l RegionLeaveOneOut
	var rp RegionPass
	var joint LeaveOneOut
	var fresh, full, without edgeErr
	var pairs int
	check := func(name string, nodes []TriState, r Region) {
		l.Reset(nodes, r, len(nodes), nil, nil)
		rp.Reset(nodes, [3]Region{r, r, r})
		if got, want := l.Mass(), rp.Mass(0); got != want {
			t.Fatalf("%s: mass %.17g, RegionPass %.17g", name, got, want)
		}
		for i := range nodes {
			f, b := l.Edges(i)
			pairs++
			ff, fb := freshEdges(nodes, r, i)
			if !fresh.check(f, b, ff, fb, 0) {
				t.Fatalf("%s node %d: edges (%.17g, %.17g), fresh fold (%.17g, %.17g)", name, i, f, b, ff, fb)
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
			check(fmt.Sprintf("iter %d n=%d region %+v", iter, n, r), nodes, r)
		}
	}
	nodes, r := deepTailRaft()
	joint.Reset(nodes)
	check("deep-tail raft n=256", nodes, r)
	deepest := 1.0
	for i := range nodes {
		f, _ := l.Edges(i)
		deepest = min(deepest, f)
	}
	if deepest > 1e-50 {
		t.Fatalf("deep-tail raft: smallest faulty edge %.3g, want the deep tail below 1e-50", deepest)
	}
	t.Logf("%d edge pairs (deep-tail leg: faulty edges from %.3g); largest relative, absolute error: fresh region fold %.3g, %.3g; joint table %.3g, %.3g; joint Without %.3g, %.3g",
		pairs, deepest, fresh.rel, fresh.abs, full.rel, full.abs, without.rel, without.abs)
}

// TestRegionLeaveOneOutGolden pins every edge of 3 000 random fleets and
// regions bit for bit: an FNV-64a hash of both edges' bits per node. The
// constant was recorded from the edge-only backward kernel, before it
// learned failure tables' out-of-region value; its zero terms must not
// move an edge.
func TestRegionLeaveOneOutGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := fnv.New64a()
	word := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	var l RegionLeaveOneOut
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(60)
		nodes := randomTriStatesCapped(rng, n, []float64{0.05, 0.4, 1, 1e-3}[iter%4])
		if iter%5 == 0 {
			for i := range nodes {
				if rng.Intn(4) == 0 {
					nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
				}
			}
		}
		l.Reset(nodes, Region{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1}, n, nil, nil)
		for i := range nodes {
			f, b := l.Edges(i)
			word(f)
			word(b)
		}
	}
	if got, want := h.Sum64(), uint64(0x8fb4d35b76a7266d); got != want {
		t.Fatalf("edge hash %#016x, want %#016x", got, want)
	}
}

// FuzzRegionLeaveOneOut drives the region leave-one-out on fleets the
// fuzzer shapes, as FuzzJointBand does (scale factors reaching products
// that underflow past τ, certain failures, out-of-range inputs the clamp
// absorbs), over regions of every shape: empty, clipped by n, β ≥ κ, κ ≥ n
// and general. Every edge must be within 1e-12 relative of a fresh fold of
// the other nodes, or both exactly 0 — or, where τ flushes cells, within
// the flush bound: a fold or backward fold flushes less than τ per cell,
// and mass only moves, so either side of one edge drops less than
// n·Cells(n, n)·τ. The fleet is then cut at two random places and read as
// three groups, each between a start table and terminal edge tables: the
// last group from all the nodes before it (RegionPass.ResetGroup) against
// the indicators, the middle one from the nodes before the first cut
// against the last group's Past, the first from the empty table against
// the middle group's Past. Every node's edges must match the same direct
// fold, and the middle group's mass the start table folded on, ==.
func FuzzRegionLeaveOneOut(f *testing.F) {
	f.Add(int64(1), uint8(20), 0.03, 0.001, 5, 2)
	f.Add(int64(2), uint8(40), 0.3, 0.3, 20, 7)
	f.Add(int64(3), uint8(40), 0.03, 1e-30, 30, 12) // products underflow past τ
	f.Add(int64(4), uint8(30), 1.0, 1.0, 9, 9)
	f.Add(int64(5), uint8(1), 0.5, 0.5, 0, 0)
	f.Add(int64(6), uint8(63), 1e-200, 0.9, 70, 3)
	f.Add(int64(7), uint8(12), 0.2, 0.1, -1, 4)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, crashScale, byzScale float64, faulty, byz int) {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]TriState, int(size)%64)
		for i := range nodes {
			nodes[i] = TriState{PCrash: crashScale * rng.Float64(), PByz: byzScale * rng.Float64()}
		}
		n := len(nodes)
		// Bounds from -1 (empty) to n + 2 (clipped by n).
		r := Region{Byz: int(uint(byz)%uint(n+4)) - 1, Faulty: int(uint(faulty)%uint(n+4)) - 1}
		var l RegionLeaveOneOut
		l.Reset(nodes, r, len(nodes), nil, nil)
		checkTableInvariant(t, fmt.Sprintf("region %+v, %d nodes", r, n), &l.full)
		flushBound := 2 * float64(n*r.Cells(n, n)) * flushBelow
		var e edgeErr
		for i := range nodes {
			got, gotByz := l.Edges(i)
			wf, wb := freshEdges(nodes, r, i)
			if !e.check(got, gotByz, wf, wb, flushBound) {
				t.Fatalf("region %+v node %d of %d: edges (%.17g, %.17g), fresh fold (%.17g, %.17g)", r, i, n, got, gotByz, wf, wb)
			}
		}
		a := rng.Intn(n + 1)
		b := a + rng.Intn(n-a+1)
		var last, mid, first RegionLeaveOneOut
		var from, upTo RegionPass
		from.ResetGroup(nodes[:a], [3]Region{r, r, r}, n)
		upTo.ResetGroup(nodes[:b], [3]Region{r, r, r}, n)
		last.Reset(nodes[b:], r, n, &upTo, nil)
		mid.Reset(nodes[a:b], r, n, &from, last.Past())
		first.Reset(nodes[:a], r, n, nil, mid.Past())
		if mid.Mass() != upTo.Mass(2) {
			t.Fatalf("region %+v cuts %d, %d of %d: middle group's mass %.17g, direct fold %.17g", r, a, b, n, mid.Mass(), upTo.Mass(2))
		}
		for i := range nodes {
			l, k := &first, i
			if i >= b {
				l, k = &last, i-b
			} else if i >= a {
				l, k = &mid, i-a
			}
			got, gotByz := l.Edges(k)
			wf, wb := freshEdges(nodes, r, i)
			if !e.check(got, gotByz, wf, wb, flushBound) {
				t.Fatalf("region %+v cuts %d, %d: node %d of %d: edges (%.17g, %.17g), direct fold (%.17g, %.17g)", r, a, b, i, n, got, gotByz, wf, wb)
			}
		}
	})
}
