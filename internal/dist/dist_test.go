package dist

import (
	"math"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Poisson binomial vs closed-form binomial
// ---------------------------------------------------------------------------

// PMF returns P[X = k]; 0 outside [0, n]. The tests' bounds-checked view
// of the DP's mass vector (the engines read tails, never single cells).
func (d *PoissonBinomial) PMF(k int) float64 {
	if k < 0 || k >= len(d.pmf) {
		return 0
	}
	return d.pmf[k]
}

// binomCDF returns P[Binomial(n, p) <= k], summed directly like
// BinomTailGE: the closed-form reference for PoissonBinomial.CDF.
func binomCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var s KahanSum
	for i := 0; i <= k; i++ {
		s.Add(math.Exp(logBinomPMF(n, p, i)))
	}
	return Clamp01(s.Sum())
}

// With every trial probability equal, the Poisson-binomial DP must
// reproduce the closed-form binomial to near machine precision — this is
// the property test pinning the DP against the log-space combinatorics.
func TestPoissonBinomialMatchesBinomial(t *testing.T) {
	for _, n := range []int{1, 2, 7, 25, 64} {
		for _, p := range []float64{0, 1e-9, 0.01, 0.3, 0.5, 0.97, 1} {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = p
			}
			d := NewPoissonBinomial(probs)
			if d.N() != n {
				t.Fatalf("N() = %d, want %d", d.N(), n)
			}
			for k := -1; k <= n+1; k++ {
				if got, want := d.PMF(k), BinomPMF(n, p, k); math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d p=%v: PMF(%d) = %g, binomial %g", n, p, k, got, want)
				}
				if got, want := d.CDF(k), binomCDF(n, p, k); math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d p=%v: CDF(%d) = %g, binomial %g", n, p, k, got, want)
				}
				if got, want := d.TailGE(k), BinomTailGE(n, p, k); math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d p=%v: TailGE(%d) = %g, binomial %g", n, p, k, got, want)
				}
			}
			var mean KahanSum
			for k, mass := range d.pmf {
				mean.Add(float64(k) * mass)
			}
			if got, want := mean.Sum(), float64(n)*p; math.Abs(got-want) > 1e-10 {
				t.Errorf("n=%d p=%v: mean = %g, want %g", n, p, got, want)
			}
		}
	}
}

func TestPoissonBinomialPMFSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(80)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		d := NewPoissonBinomial(probs)
		var s KahanSum
		for k := 0; k <= n; k++ {
			s.Add(d.PMF(k))
		}
		if math.Abs(s.Sum()-1) > 1e-13 {
			t.Fatalf("n=%d: PMF sums to %.17g", n, s.Sum())
		}
		// CDF and TailGE partition the mass at every split point.
		for k := 0; k <= n; k++ {
			if tot := d.CDF(k) + d.TailGE(k+1); math.Abs(tot-1) > 1e-12 {
				t.Fatalf("n=%d k=%d: CDF+TailGE = %.17g", n, k, tot)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Joint (#crashed, #Byzantine) trinomial DP
// ---------------------------------------------------------------------------

func randomTriStates(rng *rand.Rand, n int) []TriState {
	out := make([]TriState, n)
	for i := range out {
		pc := rng.Float64() * 0.6
		pb := rng.Float64() * (1 - pc) * 0.5
		out[i] = TriState{PCrash: pc, PByz: pb}
	}
	return out
}

// The joint DP's marginals must match the Poisson binomials of the
// individual per-node probabilities: #crashed ~ PB(PCrash), #Byzantine ~
// PB(PByz), and #failed = #crashed+#Byzantine ~ PB(PCrash+PByz).
func TestJointCrashByzMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(24)
		nodes := randomTriStates(rng, n)
		joint := NewJointCrashByz(nodes)
		if joint.N() != n {
			t.Fatalf("N() = %d, want %d", joint.N(), n)
		}

		crash := make([]float64, n)
		byz := make([]float64, n)
		fail := make([]float64, n)
		for i, ts := range nodes {
			crash[i], byz[i], fail[i] = ts.PCrash, ts.PByz, ts.PCrash+ts.PByz
		}
		pbCrash := NewPoissonBinomial(crash)
		pbByz := NewPoissonBinomial(byz)
		pbFail := NewPoissonBinomial(fail)

		for k := 0; k <= n; k++ {
			var mc, mb KahanSum
			for j := 0; j <= n; j++ {
				mc.Add(joint.PMF(k, j))
				mb.Add(joint.PMF(j, k))
			}
			if math.Abs(mc.Sum()-pbCrash.PMF(k)) > 1e-12 {
				t.Errorf("n=%d: crash marginal(%d) = %g, want %g", n, k, mc.Sum(), pbCrash.PMF(k))
			}
			if math.Abs(mb.Sum()-pbByz.PMF(k)) > 1e-12 {
				t.Errorf("n=%d: byz marginal(%d) = %g, want %g", n, k, mb.Sum(), pbByz.PMF(k))
			}
		}
		failed := make([]KahanSum, n+1) // total failures: the joint table's anti-diagonals
		for c := 0; c <= n; c++ {
			for b := 0; c+b <= n; b++ {
				failed[c+b].Add(joint.PMF(c, b))
			}
		}
		for k := range failed {
			if got, want := failed[k].Sum(), pbFail.PMF(k); math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d: fail marginal(%d) = %g, want %g", n, k, got, want)
			}
		}
	}
}

func TestJointSumWhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := randomTriStates(rng, 12)
	joint := NewJointCrashByz(nodes)

	if got := joint.SumWhere(func(c, b int) bool { return true }); math.Abs(got-1) > 1e-13 {
		t.Errorf("SumWhere(true) = %.17g, want 1", got)
	}
	if got := joint.SumWhere(func(c, b int) bool { return false }); got != 0 {
		t.Errorf("SumWhere(false) = %g, want 0", got)
	}
	// A predicate and its negation partition the mass.
	pred := func(c, b int) bool { return 2*c+3*b <= 7 }
	neg := func(c, b int) bool { return !pred(c, b) }
	if tot := joint.SumWhere(pred) + joint.SumWhere(neg); math.Abs(tot-1) > 1e-13 {
		t.Errorf("pred + !pred = %.17g, want 1", tot)
	}
}

func TestJointPMFOutsideTriangle(t *testing.T) {
	joint := NewJointCrashByz([]TriState{{PCrash: 0.2, PByz: 0.1}, {PCrash: 0.3, PByz: 0.05}})
	for _, cb := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {2, 1}, {0, 3}} {
		if got := joint.PMF(cb[0], cb[1]); got != 0 {
			t.Errorf("PMF(%d,%d) = %g, want 0", cb[0], cb[1], got)
		}
	}
	// Exhaustive 2-node check against hand-computed products.
	a, b := joint.PMF(0, 0), 0.7*0.65
	if math.Abs(a-b) > 1e-15 {
		t.Errorf("PMF(0,0) = %g, want %g", a, b)
	}
	if got, want := joint.PMF(2, 0), 0.2*0.3; math.Abs(got-want) > 1e-15 {
		t.Errorf("PMF(2,0) = %g, want %g", got, want)
	}
	if got, want := joint.PMF(1, 1), 0.2*0.05+0.1*0.3; math.Abs(got-want) > 1e-15 {
		t.Errorf("PMF(1,1) = %g, want %g", got, want)
	}
}

func TestJointClampsOverfullNodes(t *testing.T) {
	// An un-validated node with PCrash+PByz > 1 must still yield a proper
	// distribution: crash keeps its mass, Byzantine gets the remainder —
	// the Monte-Carlo sampler's branch order.
	joint := NewJointCrashByz([]TriState{{PCrash: 0.7, PByz: 0.7}, {PCrash: 0.1, PByz: 0.1}})
	if got := joint.SumWhere(func(c, b int) bool { return true }); math.Abs(got-1) > 1e-15 {
		t.Errorf("overfull node: total mass = %.17g, want 1", got)
	}
	if got, want := joint.PMF(1, 1), 0.7*0.1+0.3*0.1; math.Abs(got-want) > 1e-15 {
		t.Errorf("overfull node: PMF(1,1) = %g, want %g", got, want)
	}
}

func TestTriState(t *testing.T) {
	if got := (TriState{PCrash: 0.2, PByz: 0.3}).PCorrect(); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("PCorrect = %g, want 0.5", got)
	}
	if got := (TriState{PCrash: 0.7, PByz: 0.7}).PCorrect(); got != 0 {
		t.Errorf("overfull PCorrect = %g, want 0 (clamped)", got)
	}
}

// ---------------------------------------------------------------------------
// Combinatorics
// ---------------------------------------------------------------------------

func TestChoosePascalIdentity(t *testing.T) {
	// n <= 56 is the documented integer-exact regime (C(56,28) < 2^53),
	// so Pascal's identity must hold exactly there; past the cutoff the
	// log-gamma path is only accurate to ~1e-13 relative.
	for n := 1; n <= 56; n++ {
		for k := 1; k <= n; k++ {
			got := Choose(n, k)
			want := Choose(n-1, k-1) + Choose(n-1, k)
			if got != want {
				t.Fatalf("C(%d,%d) = %g violates Pascal exactly (want %g)", n, k, got, want)
			}
		}
	}
	for n := 57; n <= 80; n++ {
		for k := 1; k <= n; k++ {
			got := Choose(n, k)
			want := Choose(n-1, k-1) + Choose(n-1, k)
			if math.Abs(got-want) > want*1e-12 {
				t.Fatalf("C(%d,%d) = %g violates Pascal (want %g)", n, k, got, want)
			}
		}
	}
	if Choose(5, 2) != 10 || Choose(10, 0) != 1 || Choose(10, 10) != 1 {
		t.Error("small binomial coefficients wrong")
	}
	if Choose(5, -1) != 0 || Choose(5, 6) != 0 || Choose(-1, 0) != 0 {
		t.Error("out-of-range Choose must be 0")
	}
}

func TestChooseAgreesWithLogChoose(t *testing.T) {
	// C(56,28) is the largest central coefficient below 2^53: the exact
	// path must return precisely this integer.
	if got := Choose(56, 28); got != 7648690600760440 {
		t.Errorf("Choose(56,28) = %.0f, want 7648690600760440 exactly", got)
	}
	// Across the exact/log-gamma cutoff the two paths must agree closely.
	for _, nk := range [][2]int{{56, 28}, {57, 28}, {100, 3}, {200, 100}, {500, 250}} {
		n, k := nk[0], nk[1]
		got := math.Log(Choose(n, k))
		want := LogChoose(n, k)
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("log C(%d,%d): %g vs LogChoose %g", n, k, got, want)
		}
	}
	if !math.IsInf(LogChoose(5, -1), -1) || !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("out-of-range LogChoose must be -Inf")
	}
	if LogChoose(7, 0) != 0 || LogChoose(7, 7) != 0 {
		t.Error("LogChoose(n,0) and (n,n) must be 0")
	}
}

func TestBinomialEdgesAndTails(t *testing.T) {
	// Degenerate p.
	if BinomPMF(5, 0, 0) != 1 || BinomPMF(5, 0, 1) != 0 {
		t.Error("p=0 PMF wrong")
	}
	if BinomPMF(5, 1, 5) != 1 || BinomPMF(5, 1, 4) != 0 {
		t.Error("p=1 PMF wrong")
	}
	if binomCDF(5, 0.3, -1) != 0 || binomCDF(5, 0.3, 5) != 1 {
		t.Error("CDF range edges wrong")
	}
	if BinomTailGE(5, 0.3, 0) != 1 || BinomTailGE(5, 0.3, 6) != 0 {
		t.Error("TailGE range edges wrong")
	}
	// Complement identity across the full support, both tail regimes.
	for _, n := range []int{9, 40} {
		for _, p := range []float64{0.001, 0.4, 0.999} {
			for k := 0; k <= n; k++ {
				if tot := binomCDF(n, p, k) + BinomTailGE(n, p, k+1); math.Abs(tot-1) > 1e-12 {
					t.Fatalf("n=%d p=%v k=%d: CDF+TailGE = %.17g", n, p, k, tot)
				}
			}
		}
	}
	// A deep tail that naive 1-CDF arithmetic would flatten to ~1e-16
	// absolute precision: P[Binomial(1000, 1e-4) >= 5] ≈ 7.6e-8 must
	// match a direct log-space summation to full RELATIVE precision.
	tail := BinomTailGE(1000, 1e-4, 5)
	if tail <= 1e-8 || tail > 1e-6 {
		t.Errorf("deep tail = %g, want ~7.6e-8", tail)
	}
	var direct KahanSum
	for k := 5; k <= 1000; k++ {
		direct.Add(BinomPMF(1000, 1e-4, k))
	}
	if math.Abs(tail-direct.Sum()) > 1e-12*tail {
		t.Errorf("deep tail %g != direct sum %g", tail, direct.Sum())
	}
}

// ---------------------------------------------------------------------------
// Kahan summation
// ---------------------------------------------------------------------------

func TestKahanSumCompensates(t *testing.T) {
	// 1 followed by 10^7 copies of 1e-16: naive summation loses every
	// small term (1 + 1e-16 == 1 in float64); compensated summation keeps
	// them all.
	var k KahanSum
	naive := 0.0
	k.Add(1)
	naive += 1
	for i := 0; i < 1e7; i++ {
		k.Add(1e-16)
		naive += 1e-16
	}
	want := 1 + 1e-9
	if naive != 1 {
		t.Fatalf("naive sum unexpectedly compensated: %.17g", naive)
	}
	if math.Abs(k.Sum()-want) > 1e-15 {
		t.Errorf("Kahan sum = %.17g, want %.17g", k.Sum(), want)
	}
	k.Reset()
	if k.Sum() != 0 {
		t.Errorf("after Reset, Sum = %g", k.Sum())
	}
	// Neumaier's improvement: adding a big term after small ones must not
	// discard the accumulated compensation.
	var m KahanSum
	m.Add(1)
	m.Add(1e100)
	m.Add(1)
	m.Add(-1e100)
	if got := m.Sum(); got != 2 {
		t.Errorf("Neumaier sequence = %g, want 2", got)
	}
}

// ---------------------------------------------------------------------------
// Wilson interval
// ---------------------------------------------------------------------------

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(500, 1000, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval (%g, %g) must contain p-hat 0.5", lo, hi)
	}
	if hi-lo > 0.07 || hi-lo < 0.05 {
		t.Errorf("95%% width at n=1000 = %g, want ~0.062", hi-lo)
	}
	// Zero successes still gives a non-degenerate upper bound, the
	// rule-of-three regime.
	lo, hi = WilsonInterval(0, 1000, 1.96)
	if lo != 0 {
		t.Errorf("hits=0: lo = %g, want 0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Errorf("hits=0: hi = %g, want ~0.004", hi)
	}
	// Symmetry: (hits, n) and (n-hits, n) mirror around 1/2.
	lo1, hi1 := WilsonInterval(100, 1000, 1.96)
	lo2, hi2 := WilsonInterval(900, 1000, 1.96)
	if math.Abs(lo1-(1-hi2)) > 1e-12 || math.Abs(hi1-(1-lo2)) > 1e-12 {
		t.Errorf("interval not symmetric: (%g,%g) vs (%g,%g)", lo1, hi1, lo2, hi2)
	}
	// Degenerate and clamped inputs.
	if lo, hi := WilsonInterval(5, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("n=0 interval = (%g,%g), want (0,1)", lo, hi)
	}
	if lo, _ := WilsonInterval(-3, 10, 1.96); lo != 0 {
		t.Errorf("negative hits: lo = %g, want 0", lo)
	}
	if _, hi := WilsonInterval(20, 10, 1.96); hi != 1 {
		t.Errorf("hits>n: hi = %g, want 1", hi)
	}
	// Width shrinks as n grows at fixed p-hat.
	_, h1 := WilsonInterval(10, 100, 1.96)
	_, h2 := WilsonInterval(100, 1000, 1.96)
	l1, _ := WilsonInterval(10, 100, 1.96)
	l2, _ := WilsonInterval(100, 1000, 1.96)
	if h2-l2 >= h1-l1 {
		t.Errorf("interval did not narrow with n: %g vs %g", h2-l2, h1-l1)
	}
}

// ---------------------------------------------------------------------------
// Nines, formatting, clamps
// ---------------------------------------------------------------------------

func TestNinesRoundTrip(t *testing.T) {
	for n := 0.5; n <= 12; n += 0.5 {
		// The achievable precision is bounded by representing p near 1:
		// the complement is only resolved to ulp(1) = 2^-52, so the nines
		// error floor grows as ~10^n * 2^-52 / ln(10).
		tol := 1e-9 + math.Pow(10, n)*1e-16
		if got := Nines(FromNines(n)); math.Abs(got-n) > tol {
			t.Errorf("Nines(FromNines(%g)) = %g (tol %g)", n, got, tol)
		}
	}
	if Nines(0.999) < 2.9999 || Nines(0.999) > 3.0001 {
		t.Errorf("Nines(0.999) = %g, want 3", Nines(0.999))
	}
	if !math.IsInf(Nines(1), 1) {
		t.Error("Nines(1) must be +Inf")
	}
	if Nines(0) != 0 || Nines(-0.5) != 0 {
		t.Error("Nines at or below 0 must be 0")
	}
	if FromNines(0) != 0 || FromNines(-2) != 0 {
		t.Error("FromNines at or below 0 must be 0")
	}
	if FromNines(math.Inf(1)) != 1 {
		t.Error("FromNines(+Inf) must be 1")
	}
	// 12 nines survives the expm1 path without collapsing to exactly 1.
	if p := FromNines(12); p >= 1 || 1-p > 2e-12 {
		t.Errorf("FromNines(12) = %.17g loses precision", p)
	}
}

func TestFormatPercent(t *testing.T) {
	cases := []struct {
		p      float64
		digits int
		want   string
	}{
		{0.9997, 2, "99.97%"},
		{0.5, 2, "50%"},
		{0.9999901494, 2, "99.9990%"},
		{0.9999660375, 2, "99.997%"},
		{0.9999993221, 2, "99.99993%"},
		{0.9999460667, 2, "99.995%"},
		{1, 2, "100%"},
		{0, 2, "0%"},
		{0.25, 0, "25%"},
		{0.123456, 2, "12.35%"},
		{0.9994, -1, "99.94%"}, // negative digits treated as 0; complement still expands
	}
	for _, c := range cases {
		if got := FormatPercent(c.p, c.digits); got != c.want {
			t.Errorf("FormatPercent(%v, %d) = %q, want %q", c.p, c.digits, got, c.want)
		}
	}
}

func TestClampAndComplement(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.25) != 0.25 {
		t.Error("Clamp01 wrong")
	}
	if Clamp01(math.NaN()) != 0 {
		t.Error("Clamp01(NaN) must be 0")
	}
	if Complement(0.25) != 0.75 || Complement(-1) != 1 || Complement(2) != 0 {
		t.Error("Complement wrong")
	}
}
