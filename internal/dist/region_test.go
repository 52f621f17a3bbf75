package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeNodes are the tri-states the region tables must carry exactly: a
// node that never fails, one that never stays correct, one that is always
// Byzantine and one that always crashes.
var edgeNodes = []TriState{{}, {PCrash: 0.25, PByz: 0.75}, {PByz: 1}, {PCrash: 1}}

// checkRegionInvariant asserts every table's whole buffer is zero outside
// its live extents and holds nothing inside (0, τ).
func checkRegionInvariant(t *testing.T, name string, rp *RegionPass) {
	t.Helper()
	for i := range rp.tabs {
		tab := &rp.tabs[i]
		p := tab.p[:cap(tab.p)]
		for j, v := range p {
			live := false
			if tab.w > 0 {
				b, c := j/tab.w, j%tab.w
				live = b < len(tab.hi) && c < tab.hi[b]
			}
			if !live && v != 0 {
				t.Fatalf("%s: table %d cell %d = %g outside the live extents %v", name, i, j, v, tab.hi)
			}
			if v > 0 && v < flushBelow {
				t.Fatalf("%s: table %d cell %d = %g stored inside (0, τ)", name, i, j, v)
			}
		}
	}
}

// TestRegionPassMatchesJoint pins the kernel against the joint table summed
// over each region, on one reused workspace: random fleets, sizes and
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
		joint := NewJointCrashByz(nodes)
		for i, r := range regions {
			want := joint.SumWhere(r.Holds)
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
// mixed, convolved and deflated tables (whose cells may be exactly 0 or,
// after a deflation, carry round-off of either sign) and regions of every
// kind: empty, vacuous, clipped by either bound.
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

// regionSumSink keeps BenchmarkRegionSum's calls from being optimized away.
var regionSumSink float64

// BenchmarkRegionSum times one region's sum over a joint table at the
// sizes the domain engines read (a 36-node rest table is domain_churn's)
// for majority Raft's safe-and-live region.
func BenchmarkRegionSum(b *testing.B) {
	for _, n := range []int{36, 256} {
		d := NewJointCrashByz(coldFleet(rand.New(rand.NewSource(int64(n))), n))
		r := Region{Byz: 0, Faulty: n - (n/2 + 1)}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				regionSumSink = d.RegionSum(r)
			}
		})
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
