package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeNodes are the tri-states the region tables must carry exactly: a
// node that never fails, one that never stays correct, one that is always
// Byzantine and one that always crashes.
var edgeNodes = []TriState{{}, {PCrash: 0.25, PByz: 0.75}, {PByz: 1}, {PCrash: 1}}

// checkRegionInvariant asserts the whole-buffer invariant of every table.
func checkRegionInvariant(t *testing.T, name string, rp *RegionPass) {
	t.Helper()
	for i := range rp.tabs {
		checkTableInvariant(t, fmt.Sprintf("%s: table %d", name, i), &rp.tabs[i])
	}
}

// checkTableInvariant asserts a table's whole buffer, spare capacity
// included, is zero outside its column extents, that every extent is
// tight, that nothing is stored inside (0, τ), and that no cell is
// negative or -0: the only values on which flush and its bit-pattern form
// (flushByBits) part.
func checkTableInvariant(t *testing.T, name string, tab *regionTable) {
	t.Helper()
	for j, v := range tab.p[:cap(tab.p)] {
		if v < 0 || v == 0 && math.Signbit(v) {
			t.Fatalf("%s: cell %d = %g is negative or -0", name, j, v)
		}
		live := false
		if tab.w > 0 {
			b, c := j/tab.w, j%tab.w
			live = b < len(tab.hi) && c < tab.hi[b]
		}
		if !live && v != 0 {
			t.Fatalf("%s: cell %d = %g outside the live extents %v", name, j, v, tab.hi)
		}
		if v > 0 && v < flushBelow {
			t.Fatalf("%s: cell %d = %g stored inside (0, τ)", name, j, v)
		}
	}
	for b, h := range tab.hi {
		if h > 0 && tab.p[b*tab.w+h-1] == 0 {
			t.Fatalf("%s: column %d's extent %d is not tight", name, b, h)
		}
	}
}

// TestRegionPassMatchesJoint pins the kernel against the dense scatter
// oracle's joint table summed over each region (c ascending, then b), on
// one reused workspace: random fleets, sizes and
// regions of every shape (empty, vacuous, one row over c + b, one row over
// b, the general table), with the edge tri-states mixed in.
func TestRegionPassMatchesJoint(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var rp RegionPass
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(30)
		if iter%50 == 0 {
			n = 150 + rng.Intn(150)
		}
		nodes := randomTriStatesCapped(rng, n, []float64{0.05, 0.4, 1}[iter%3])
		if iter%4 == 0 {
			for i := range nodes {
				if rng.Intn(4) == 0 {
					nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
				}
			}
		}
		var regions [3]Region
		for i := range regions {
			regions[i] = Region{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1}
		}
		rp.Reset(nodes, regions)
		name := fmt.Sprintf("iter %d n=%d regions %v", iter, n, regions)
		checkRegionInvariant(t, name, &rp)
		joint := scatterOracle(nodes)
		for i, r := range regions {
			var s KahanSum
			for j, v := range joint {
				if r.Holds(j/(n+1), j%(n+1)) {
					s.Add(v)
				}
			}
			want := Clamp01(s.Sum())
			if got := rp.Mass(i); math.Abs(got-want) > 2e-15 {
				t.Fatalf("%s: region %d mass %.17g, joint table %.17g", name, i, got, want)
			}
		}
	}
}

// TestRegionPassEdges pins the cases with an exact answer: an empty region
// has mass 0, a region holding every outcome of the fleet mass 1 (to
// rounding), and the Byzantine-free region of a fleet with no Byzantine
// mass exactly 1.
func TestRegionPassEdges(t *testing.T) {
	var rp RegionPass
	crashOnly := []TriState{{PCrash: 0.1}, {PCrash: 0.3}, {PCrash: 1}, {}}
	rp.Reset(crashOnly, [3]Region{{Byz: -1, Faulty: 4}, {Byz: 0, Faulty: 4}, {Byz: 0, Faulty: -1}})
	if got := [3]float64{rp.Mass(0), rp.Mass(1), rp.Mass(2)}; got != [3]float64{0, 1, 0} {
		t.Fatalf("crash-only fleet: empty / b <= 0 / empty masses %v, want [0 1 0]", got)
	}
	// edgeNodes land on (c, b) = (2, 1) with probability 0.25 and on
	// (1, 2) with 0.75.
	rp.Reset(edgeNodes, [3]Region{{Byz: 4, Faulty: 4}, {Byz: 0, Faulty: 4}, {Byz: 1, Faulty: 3}})
	if got := [3]float64{rp.Mass(0), rp.Mass(1), rp.Mass(2)}; got != [3]float64{1, 0, 0.25} {
		t.Fatalf("edge fleet: whole / b <= 0 / (b <= 1, c + b <= 3) masses %v, want [1 0 0.25]", got)
	}
	rp.Reset(nil, [3]Region{{}, {Byz: -1}, {Byz: 3, Faulty: 3}})
	if got := [3]float64{rp.Mass(0), rp.Mass(1), rp.Mass(2)}; got != [3]float64{1, 0, 1} {
		t.Fatalf("no nodes: masses %v, want [1 0 1]", got)
	}
}

// TestRegionSumMatchesCellScan pins RegionSum to the cell-by-cell scan it
// stands for — every cell of the triangle, kept when the region holds it,
// folded into one compensated sum in row-major order — with ==, on joint,
// mixed, convolved and the joint oracle's deflated tables (whose cells may
// be exactly 0 or, after LeaveOneOut.Without, carry round-off of either
// sign) and regions of every kind: empty, vacuous, clipped by either bound.
func TestRegionSumMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	scan := func(d *JointCrashByz, r Region) float64 {
		var s KahanSum
		for c := 0; c <= d.N(); c++ {
			for b := 0; c+b <= d.N(); b++ {
				if r.Holds(c, b) {
					s.Add(d.PMF(c, b))
				}
			}
		}
		return s.Sum()
	}
	var loo LeaveOneOut
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(40)
		nodes := randomTriStatesCapped(rng, n, []float64{0.05, 0.4, 1}[iter%3])
		if iter%4 == 0 {
			for i := range nodes {
				if rng.Intn(4) == 0 {
					nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
				}
			}
		}
		joint := NewJointCrashByz(nodes)
		mixed, err := MixJointCrashByz(joint, NewJointCrashByz(randomTriStatesCapped(rng, n, 1)), 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		split := rng.Intn(n + 1)
		tables := []*JointCrashByz{joint, mixed,
			ConvolveJointCrashByz(NewJointCrashByz(nodes[:split]), NewJointCrashByz(nodes[split:]))}
		if n > 0 {
			loo.Reset(nodes)
			tables = append(tables, loo.Without(rng.Intn(n)))
		}
		for _, d := range tables {
			for k := 0; k < 12; k++ {
				r := Region{Byz: rng.Intn(n+3) - 1, Faulty: rng.Intn(n+3) - 1}
				if got, want := d.RegionSum(r), scan(d, r); got != want {
					t.Fatalf("iter %d n=%d region %+v: RegionSum %.17g, cell scan %.17g", iter, n, r, got, want)
				}
			}
		}
	}
	if got := NewJointCrashByz(edgeNodes).RegionSum(Region{Byz: -1, Faulty: 4}); got != 0 {
		t.Fatalf("empty region sums to %g, want 0", got)
	}
}

// BenchmarkRegionPass is the kernel's size ladder on the bench's cold_large
// probabilities for the three regions of majority Raft (rows over b and
// c + b, the b = 0 general column) beside the joint build they replace.
func BenchmarkRegionPass(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		nodes := coldFleet(rand.New(rand.NewSource(int64(n))), n)
		k := n - (n/2 + 1)
		regions := [3]Region{{Byz: 0, Faulty: n}, {Byz: n, Faulty: k}, {Byz: 0, Faulty: k}}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var rp RegionPass
			rp.Reset(nodes, regions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp.Reset(nodes, regions)
			}
		})
	}
}

// sameTables asserts got's tables are want's bit for bit: layout, every
// live length and every cell.
func sameTables(t *testing.T, name string, got, want *RegionPass) {
	t.Helper()
	for i := range got.tabs {
		g, w := &got.tabs[i], &want.tabs[i]
		if g.shape != w.shape || g.w != w.w || !slices.Equal(g.hi, w.hi) || len(g.p) != len(w.p) {
			t.Fatalf("%s: table %d: shape %d, %d×%d, extents %v; want shape %d, %d×%d, extents %v",
				name, i, g.shape, len(g.hi), g.w, g.hi, w.shape, len(w.hi), w.w, w.hi)
		}
		for j := range g.p {
			if math.Float64bits(g.p[j]) != math.Float64bits(w.p[j]) {
				t.Fatalf("%s: table %d cell %d: %.17g, want %.17g", name, i, j, g.p[j], w.p[j])
			}
		}
	}
}

// FuzzRegionFold pins Fold, which takes a row through two nodes in one
// sweep (foldRow2), to folding one node at a time with regionTable.fold:
// every cell and every live length, for tables of all five shapes (empty,
// the c + b row, the b row, the b = 0 column and the general table of
// several columns), over groups of odd and even size, from ResetGroup and
// from a table already folded on — ResetGroup(a) then Fold(b) is
// ResetGroup(a ++ b), with a of odd length so b's pairs straddle a's. The
// scales reach FuzzJointBand's regimes: products that underflow past τ,
// certain failures and inputs the clamp must absorb.
func FuzzRegionFold(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(7), uint8(9), 0.03, 0.001)
	f.Add(int64(2), uint8(41), uint8(0), uint8(30), 0.3, 0.3)
	f.Add(int64(3), uint8(40), uint8(13), uint8(55), 0.03, 1e-30) // products underflow straight past τ
	f.Add(int64(4), uint8(31), uint8(2), uint8(5), 1.0, 1.0)
	f.Add(int64(5), uint8(0), uint8(0), uint8(0), 0.5, 0.5)
	f.Add(int64(6), uint8(63), uint8(31), uint8(200), 1e-200, 0.9)
	f.Add(int64(7), uint8(1), uint8(1), uint8(1), 1.7, -0.4) // clamped
	f.Fuzz(func(t *testing.T, seed int64, size, split, bound uint8, crashScale, byzScale float64) {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]TriState, int(size)%64)
		for i := range nodes {
			nodes[i] = TriState{PCrash: crashScale * rng.Float64(), PByz: byzScale * rng.Float64()}
			if rng.Intn(16) == 0 {
				nodes[i] = edgeNodes[rng.Intn(len(edgeNodes))]
			}
		}
		n := len(nodes) + int(bound)%3 // the fleet the tables are laid out for
		k := int(bound) % (n + 1)      // a faulty bound, below n unless n = 0
		if k == n && n > 0 {
			k--
		}
		for _, regions := range [][3]Region{
			{{Byz: -1, Faulty: k}, {Byz: n, Faulty: k}, {Byz: k, Faulty: n}},      // empty, c + b row, b row
			{{Byz: 0, Faulty: k}, {Byz: 1 + k/3, Faulty: k}, {Byz: n, Faulty: n}}, // b = 0 column, general, vacuous
		} {
			var want RegionPass
			want.ResetGroup(nil, regions, n)
			for _, node := range nodes {
				pc, pb, pok := clampTri(node)
				for i := range want.tabs {
					want.tabs[i].fold(pc, pb, pok)
				}
			}
			name := fmt.Sprintf("%d nodes, n=%d, regions %v", len(nodes), n, regions)
			var got RegionPass
			got.ResetGroup(nodes, regions, n)
			checkRegionInvariant(t, name, &got)
			sameTables(t, name, &got, &want)
			a := min(int(split)|1, len(nodes))
			got.ResetGroup(nodes[:a], regions, n)
			got.Fold(nodes[a:])
			sameTables(t, fmt.Sprintf("%s, folded on after %d", name, a), &got, &want)
		}
	})
}
