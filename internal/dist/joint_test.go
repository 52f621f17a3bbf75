package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// scatterOracle is the historical joint-DP build, kept only as a test
// oracle: a dense scatter fold over the whole support triangle with no
// live extents and no flush (values underflow gradually, as IEEE-754
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

// checkAgainstOracle pins the flush contract for one built table: no cell
// above the oracle, every cell >= eqAbove bit-equal, Σ|diff| within the
// budget, total mass within 1e-12 of 1. It returns how many cells the
// flush (not natural underflow) zeroed.
func checkAgainstOracle(t *testing.T, name string, nodes []TriState, got *JointCrashByz, eqAbove float64) (flushed int) {
	t.Helper()
	n := len(nodes)
	if got.N() != n || len(got.t.p) != (n+1)*(n+1) {
		t.Fatalf("%s: table over %d nodes with %d cells, want %d nodes", name, got.N(), len(got.t.p), n)
	}
	checkTableInvariant(t, name, &got.t)
	want := scatterOracle(nodes)
	var diff, mass KahanSum
	for i, v := range want {
		c, b := i/(n+1), i%(n+1)
		g := got.PMF(c, b)
		if g > v {
			t.Fatalf("%s: cell (%d,%d) = %g above the oracle's %g", name, c, b, g, v)
		}
		if v >= eqAbove && g != v {
			t.Fatalf("%s: cell (%d,%d) = %g differs from the oracle's %g", name, c, b, g, v)
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

// flushByBits is flush in the form it was first written: the bit
// patterns compared as integers, which sends every cell through the
// integer registers and a conditional move.
func flushByBits(v float64) float64 {
	if math.Float64bits(v) < math.Float64bits(flushBelow) {
		return 0
	}
	return v
}

// TestFlushMatchesBitForm pins flush to flushByBits, bit for bit, on every
// kind of value a fold can produce — +0, a subnormal, both sides of τ, 1,
// +Inf and NaN — and shows the two part on negatives and -0, which
// checkTableInvariant keeps out of every table.
func TestFlushMatchesBitForm(t *testing.T) {
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(flushBelow, 0), flushBelow,
		math.Nextafter(flushBelow, 1), 1, math.Inf(1), math.NaN()} {
		if got, want := math.Float64bits(flush(v)), math.Float64bits(flushByBits(v)); got != want {
			t.Errorf("flush(%g) = %#x, bit form %#x", v, got, want)
		}
	}
	for _, v := range []float64{math.Copysign(0, -1), -math.SmallestNonzeroFloat64, -1, math.Inf(-1)} {
		if got, want := math.Float64bits(flush(v)), math.Float64bits(flushByBits(v)); got == want {
			t.Errorf("flush(%g) = %#x, the bit form's bits: the two forms should differ here", v, got)
		}
	}
}

// TestFlushBound pins the joint table's fold against the scatter oracle on
// random heterogeneous fleets from both regimes.
func TestFlushBound(t *testing.T) {
	if flushBelow != math.Ldexp(1, -900) {
		t.Fatalf("τ = %g (bits %#x)", flushBelow, math.Float64bits(flushBelow))
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
// runs a large build whose deep tail underflows, a small one, a dense one,
// an underflowing one of the same size and the dense writers in turn, and
// is checked against the oracle (and the whole-buffer invariant) after
// every step.
func TestBandWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var d JointCrashByz
	for i, nodes := range [][]TriState{
		coldFleet(rng, 200), coldFleet(rng, 7), denseFleet(120), coldFleet(rng, 120), // same stride: Reset clears what the dense build left live
		coldFleet(rng, 200), nil, coldFleet(rng, 64),
	} {
		d.Reset(nodes)
		checkAgainstOracle(t, fmt.Sprintf("step %d (n=%d)", i, len(nodes)), nodes, &d, 1e-250)
	}
	// Dense writers into a buffer a larger build left live.
	a, b := NewJointCrashByz(coldFleet(rng, 9)), NewJointCrashByz(coldFleet(rng, 5))
	d.Reset(coldFleet(rng, 200))
	ConvolveJointCrashByzInto(&d, a, b)
	checkTableInvariant(t, "convolved", &d.t)
	d.Reset(coldFleet(rng, 200))
	if err := MixJointCrashByzInto(&d, a, a, 0.25, 0.75); err != nil {
		t.Fatal(err)
	}
	checkTableInvariant(t, "mixed", &d.t)
	if diff := maxJointDiff(t, &d, a); diff > 1e-15 {
		t.Fatalf("mixture of a table with itself drifts by %g", diff)
	}
}

// TestJointGolden pins four tables bit for bit: an FNV-64a hash of every
// cell's bits (c ascending, then b) and of one region's SumWhere. The
// constants were recorded from the two-buffer row-major fold this table's
// in-place column fold replaced, and must not move: TestFlushBound only
// pins cells above 1e-250 bit for bit, and the cold fleet's triangle holds
// cells all the way down to τ.
func TestJointGolden(t *testing.T) {
	for _, tc := range []struct {
		name       string
		nodes      []TriState
		r          Region
		hash, bits uint64
	}{
		{"cold N=256", coldFleet(rand.New(rand.NewSource(256)), 256), Region{Byz: 1, Faulty: 8}, 0x74349d67fcd0f81f, 0x3fe561f70952a157},
		{"dense N=64", denseFleet(64), Region{Byz: 16, Faulty: 32}, 0x60f42252cc934aeb, 0x3fa685105c77dba3},
		{"edge nodes", edgeNodes, Region{Byz: 1, Faulty: 3}, 0x1a06fe858f880890, 0x3fd0000000000000},
		{"no nodes", nil, Region{}, 0x2be2cbea19a827c5, 0x3ff0000000000000},
	} {
		d := NewJointCrashByz(tc.nodes)
		h := fnv.New64a()
		word := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
		for c := 0; c <= d.N(); c++ {
			for b := 0; c+b <= d.N(); b++ {
				word(d.PMF(c, b))
			}
		}
		sum := d.SumWhere(tc.r.Holds)
		word(sum)
		if h.Sum64() != tc.hash || math.Float64bits(sum) != tc.bits {
			t.Errorf("%s: hash %#016x, SumWhere %.17g (bits %#016x); want hash %#016x, bits %#016x",
				tc.name, h.Sum64(), sum, math.Float64bits(sum), tc.hash, tc.bits)
		}
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

// BenchmarkJointReset is the full-triangle build's size ladder on two
// regimes: the bench's cold_large probabilities, where most of the
// triangle underflows, and p = 0.3/0.3, where none of it does.
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
