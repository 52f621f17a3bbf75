package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scatterOracle is the historical joint-DP build, kept only as a test
// oracle: a dense scatter fold over the whole support triangle with no
// band, no extents and no flush (values underflow gradually, as IEEE-754
// does by default). It returns the (n+1)x(n+1) row-major table.
func scatterOracle(nodes []TriState) []float64 {
	w := len(nodes) + 1
	cur, next := make([]float64, w*w), make([]float64, w*w)
	cur[0] = 1
	for i, t := range nodes {
		pc, pb, pok := clampTri(t)
		for j := range next {
			next[j] = 0
		}
		for c := 0; c <= i; c++ {
			for b := 0; b+c <= i; b++ {
				m := cur[c*w+b]
				if m == 0 {
					continue
				}
				next[c*w+b] += m * pok
				next[(c+1)*w+b] += m * pc
				next[c*w+b+1] += m * pb
			}
		}
		cur, next = next, cur
	}
	return cur
}

// flushBudget is the stated bound on the mass one n-node build may remove:
// a build computes (n+1)(n+2)(n+3)/6 - 1 cells, each flushed at most once,
// each flush removing less than τ (≈ n³/6·τ; DESIGN.md "Incremental-DP
// math").
func flushBudget(n int) float64 {
	return float64((n+1)*(n+2)*(n+3)) / 6 * flushBelow
}

// coldFleet draws per-node probabilities from the bench's cold_large range
// (p_crash 0.005..0.05, p_byz 0.0001..0.002), where an N >= 200 build
// underflows over a wide frontier; denseFleet is p = 0.3/0.3, where nothing
// does.
func coldFleet(rng *rand.Rand, n int) []TriState {
	out := make([]TriState, n)
	for i := range out {
		out[i] = TriState{PCrash: 0.005 + 0.045*rng.Float64(), PByz: 0.0001 + 0.0019*rng.Float64()}
	}
	return out
}

func denseFleet(n int) []TriState {
	out := make([]TriState, n)
	for i := range out {
		out[i] = TriState{PCrash: 0.3, PByz: 0.3}
	}
	return out
}

// checkBandInvariant asserts the band invariant over the whole buffer,
// spare capacity included: zero outside the live extents, extents tight,
// and nothing stored in (0, τ).
func checkBandInvariant(t *testing.T, name string, b *band) {
	t.Helper()
	w := len(b.hi)
	p := b.p[:cap(b.p)]
	for i, v := range p {
		c, col := i/w, i%w
		if live := c < b.rows && col < b.hi[c]; !live && v != 0 {
			t.Fatalf("%s: cell (%d,%d) = %g outside the live extent", name, c, col, v)
		}
		if v > 0 && v < flushBelow {
			t.Fatalf("%s: cell (%d,%d) = %g stored inside (0, τ)", name, c, col, v)
		}
	}
	for c, h := range b.hi {
		if c >= b.rows && h != 0 {
			t.Fatalf("%s: hi[%d] = %d past rows = %d", name, c, h, b.rows)
		}
		if h > 0 && p[c*w+h-1] == 0 {
			t.Fatalf("%s: hi[%d] = %d is not tight", name, c, h)
		}
	}
	if b.rows > 0 && b.hi[b.rows-1] == 0 {
		t.Fatalf("%s: rows = %d is not tight", name, b.rows)
	}
}

// checkAgainstOracle pins the flush contract for one built table: no cell
// above the oracle, every cell >= eqAbove bit-equal, Σ|diff| within the
// budget, total mass within 1e-12 of 1. It returns how many cells the
// flush (not natural underflow) zeroed.
func checkAgainstOracle(t *testing.T, name string, nodes []TriState, got *JointCrashByz, eqAbove float64) (flushed int) {
	t.Helper()
	n := len(nodes)
	if got.N() != n || len(got.p) != (n+1)*(n+1) {
		t.Fatalf("%s: table over %d nodes with %d cells, want %d nodes", name, got.N(), len(got.p), n)
	}
	checkBandInvariant(t, name+" table", &got.band)
	checkBandInvariant(t, name+" scratch", &got.scratch)
	want := scatterOracle(nodes)
	var diff, mass KahanSum
	for i, v := range want {
		g := got.p[i]
		if g > v {
			t.Fatalf("%s: cell %d = %g above the oracle's %g", name, i, g, v)
		}
		if v >= eqAbove && g != v {
			t.Fatalf("%s: cell %d = %g differs from the oracle's %g", name, i, g, v)
		}
		if g == 0 && v >= math.SmallestNonzeroFloat64 {
			flushed++
		}
		diff.Add(v - g)
		mass.Add(g)
	}
	if d := diff.Sum(); d > flushBudget(n) {
		t.Fatalf("%s: Σ|diff| = %g exceeds the flush budget %g", name, d, flushBudget(n))
	}
	if m := mass.Sum(); math.Abs(m-1) > 1e-12 {
		t.Fatalf("%s: total mass %v", name, m)
	}
	return flushed
}

// TestFlushBound pins the band kernel against the scatter oracle on random
// heterogeneous fleets from both regimes.
func TestFlushBound(t *testing.T) {
	if math.Float64bits(flushBelow) != flushBits || flushBelow != math.Ldexp(1, -900) {
		t.Fatalf("τ = %g (bits %#x), flushBits = %#x", flushBelow, math.Float64bits(flushBelow), uint64(flushBits))
	}
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 2, 3, 7, 64, 200, 300} {
		for rep := 0; rep < 3; rep++ {
			cold := coldFleet(rng, n)
			flushed := checkAgainstOracle(t, fmt.Sprintf("cold n=%d", n), cold, NewJointCrashByz(cold), 1e-250)
			if n >= 200 && flushed == 0 {
				t.Fatalf("cold n=%d: the flush never engaged", n)
			}
			mixed := randomTriStatesCapped(rng, n, 0.6)
			checkAgainstOracle(t, fmt.Sprintf("mixed n=%d", n), mixed, NewJointCrashByz(mixed), 1e-250)
		}
		// Nothing underflows at p = 0.3/0.3: bit-equal everywhere.
		checkAgainstOracle(t, fmt.Sprintf("p=0.3/0.3 n=%d", n), denseFleet(n), NewJointCrashByz(denseFleet(n)), 0)
	}
}

// TestBandWorkspaceReuse proves stale extents never leak: one workspace
// runs a large banded build, a small one, a dense one, a banded one of the
// same size and the dense writers in turn, and is checked against the
// oracle (and the whole-buffer invariant) after every step.
func TestBandWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var d JointCrashByz
	for i, nodes := range [][]TriState{
		coldFleet(rng, 200), coldFleet(rng, 7), denseFleet(120), coldFleet(rng, 120), // same stride: fold clears the stale scratch
		coldFleet(rng, 200), nil, coldFleet(rng, 64),
	} {
		d.Reset(nodes)
		checkAgainstOracle(t, fmt.Sprintf("step %d (n=%d)", i, len(nodes)), nodes, &d, 1e-250)
	}
	// Dense writers into a buffer a larger banded build left live.
	a, b := NewJointCrashByz(coldFleet(rng, 9)), NewJointCrashByz(coldFleet(rng, 5))
	d.Reset(coldFleet(rng, 200))
	ConvolveJointCrashByzInto(&d, a, b)
	checkBandInvariant(t, "convolved", &d.band)
	d.Reset(coldFleet(rng, 200))
	if err := MixJointCrashByzInto(&d, a, a, 0.25, 0.75); err != nil {
		t.Fatal(err)
	}
	checkBandInvariant(t, "mixed", &d.band)
	if diff := maxJointDiff(t, &d, a); diff > 1e-15 {
		t.Fatalf("mixture of a table with itself drifts by %g", diff)
	}
}

// FuzzJointBand drives Reset against the oracle on fleets
// the fuzzer shapes: scale factors on the per-node probabilities reach the
// regimes the fixed tests do not (products that underflow straight past τ,
// certain failures, out-of-range inputs the clamp must absorb). Bit
// equality is pinned from 1e-240 up: a 1-ulp rounding flip at 1e-250 has
// probability ~1e-5 per operation, at 1e-240 ~1e-15.
func FuzzJointBand(f *testing.F) {
	f.Add(int64(1), uint8(20), 0.03, 0.001)
	f.Add(int64(2), uint8(40), 0.3, 0.3)
	f.Add(int64(3), uint8(40), 0.03, 1e-30) // products underflow straight past τ
	f.Add(int64(4), uint8(30), 1.0, 1.0)
	f.Add(int64(5), uint8(0), 0.5, 0.5)
	f.Add(int64(6), uint8(63), 1e-200, 0.9)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, crashScale, byzScale float64) {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]TriState, int(size)%64)
		for i := range nodes {
			nodes[i] = TriState{PCrash: crashScale * rng.Float64(), PByz: byzScale * rng.Float64()}
		}
		checkAgainstOracle(t, "fresh", nodes, NewJointCrashByz(nodes), 1e-240)
	})
}

// BenchmarkJointReset is the kernel's size ladder on the two regimes the
// band is sized against: the bench's cold_large probabilities, where most
// of the triangle underflows, and p = 0.3/0.3, where none of it does.
func BenchmarkJointReset(b *testing.B) {
	for _, n := range []int{20, 64, 256, 1024} {
		for _, tc := range []struct {
			name  string
			nodes []TriState
		}{{"cold", coldFleet(rand.New(rand.NewSource(int64(n))), n)}, {"dense", denseFleet(n)}} {
			b.Run(fmt.Sprintf("%s/N=%d", tc.name, n), func(b *testing.B) {
				var d JointCrashByz
				d.Reset(tc.nodes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Reset(tc.nodes)
				}
			})
		}
	}
}
