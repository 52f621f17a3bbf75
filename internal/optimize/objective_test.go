package optimize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// exemplarProblem is the hardening-budget exemplar shared with
// examples/hardening and BenchmarkOptimizeHardening: a 5-node Raft fleet
// of very mixed quality, one unit of budget, diminishing-returns curves.
func exemplarProblem() HardeningProblem {
	bases := []float64{0.08, 0.05, 0.03, 0.02, 0.01}
	fleet := make(core.Fleet, len(bases))
	curves := make([]faultcurve.Response, len(bases))
	for i, b := range bases {
		fleet[i] = core.Node{Name: "node", Profile: faultcurve.Crash(b)}
		curves[i] = faultcurve.HardeningResponse(b, 0.1, 0.25)
	}
	return HardeningProblem{
		Fleet:  fleet,
		Model:  core.NewRaft(len(bases)),
		Curves: curves,
		Budget: 1.0,
	}
}

// TestGradientAgreement pins the analytic leave-one-out gradient to the
// central-difference gradient to 1e-6, on a heterogeneous fleet with
// Byzantine mass (the full tri-state chain rule).
func TestGradientAgreement(t *testing.T) {
	n := 7
	fleet := make(core.Fleet, n)
	curves := make([]faultcurve.Response, n)
	for i := range fleet {
		base := faultcurve.Profile{PCrash: 0.02 + 0.01*float64(i), PByz: 0.001 * float64(i)}
		fleet[i] = core.Node{Name: "node", Profile: base}
		curves[i] = faultcurve.HardeningResponse(base.PFail(), 0.15, 0.4)
	}
	p := HardeningProblem{Fleet: fleet, Model: core.NewPBFTForN(n), Curves: curves, Budget: 2.0}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	obj := p.Objective()
	value := func(x []float64) float64 { return obj.Value(x) }

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, n)
		remaining := p.Budget
		for i := range x {
			x[i] = rng.Float64() * remaining / 2
			remaining -= x[i]
		}
		analytic := make([]float64, n)
		numeric := make([]float64, n)
		obj.Grad(x, analytic)
		CentralDiffGrad(value, x, 0, numeric)
		for i := range x {
			if diff := math.Abs(analytic[i] - numeric[i]); diff > 1e-6 {
				t.Errorf("trial %d coord %d: analytic %v vs central-diff %v (|Δ| = %.3g)",
					trial, i, analytic[i], numeric[i], diff)
			}
		}
	}
}

// TestHardeningExemplarCertificate is the acceptance bar: away-step FW on
// the hardening exemplar must certify a duality gap below 1e-8, match a
// dense (multi-stage) grid scan within 1e-6 nines, and beat the uniform
// split by a measurable margin.
func TestHardeningExemplarCertificate(t *testing.T) {
	p := exemplarProblem()
	a, err := SolveHardening(p, Options{GapTolerance: 1e-9, MaxIterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged || a.Gap >= 1e-8 {
		t.Fatalf("no certificate: gap %v after %d iterations", a.Gap, a.Iterations)
	}
	spent := 0.0
	for _, s := range a.Spend {
		if s < -1e-12 {
			t.Fatalf("negative spend %v", a.Spend)
		}
		spent += s
	}
	if spent > p.Budget+1e-9 {
		t.Fatalf("overspent: %v > %v", spent, p.Budget)
	}
	if gain := a.NinesGainedOverUniform(); gain < 0.01 {
		t.Errorf("optimized split gains only %v nines over uniform; want a measurable margin", gain)
	}
	if a.Optimized.Nines() <= a.Base.Nines() {
		t.Errorf("hardening must help: base %v nines, optimized %v", a.Base.Nines(), a.Optimized.Nines())
	}

	// Dense grid scan over the full-spend face (the response curves are
	// strictly decreasing, so the optimum spends the whole budget), three
	// refinement stages down to a 1e-4 step. Reduced to the exemplar's
	// three worst nodes... no: scan all five via nested loops is too
	// large, so pin the grid comparison on a 3-node slice of the same
	// construction below.
	p3 := exemplarProblem()
	p3.Fleet = p3.Fleet[:3]
	p3.Curves = p3.Curves[:3]
	p3.Model = core.NewRaft(3)
	a3, err := SolveHardening(p3, Options{GapTolerance: 1e-10, MaxIterations: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !a3.Converged || a3.Gap >= 1e-8 {
		t.Fatalf("3-node exemplar: no certificate (gap %v)", a3.Gap)
	}
	bestNines := math.Inf(-1)
	cx, cy := 0.0, 0.0 // grid center
	for stage, step := range []float64{0.01, 0.001, 0.0001} {
		window := 1.0
		if stage > 0 {
			window = step * 25
		}
		sx, sy, sn := cx, cy, bestNines
		for x1 := math.Max(0, cx-window); x1 <= math.Min(p3.Budget, cx+window)+1e-12; x1 += step {
			for x2 := math.Max(0, cy-window); x2 <= math.Min(p3.Budget-x1, cy+window)+1e-12; x2 += step {
				x3 := p3.Budget - x1 - x2
				if x3 < 0 {
					continue
				}
				res := p3.Eval([]float64{x1, x2, x3})
				if n := res.Nines(); n > sn {
					sn, sx, sy = n, x1, x2
				}
			}
		}
		bestNines, cx, cy = sn, sx, sy
	}
	fwNines := a3.Optimized.Nines()
	if diff := math.Abs(fwNines - bestNines); diff > 1e-6 {
		t.Errorf("FW nines %v vs dense grid %v: |Δ| = %.3g > 1e-6", fwNines, bestNines, diff)
	}
}

// TestSolveDeterministic pins the solver's determinism contract: the
// fingerprint caches serve bit-identical allocations for identical
// problems, so two identical solves must agree to the last bit. The
// per-node cap forces the optimum onto a face touched by many active
// vertices — the regime where map-ordered atom bookkeeping used to
// reorder float summation run to run.
func TestSolveDeterministic(t *testing.T) {
	build := func() HardeningProblem {
		bases := []float64{0.09, 0.07, 0.06, 0.05, 0.03, 0.02, 0.01}
		fleet := make(core.Fleet, len(bases))
		curves := make([]faultcurve.Response, len(bases))
		for i, b := range bases {
			fleet[i] = core.Node{Profile: faultcurve.Crash(b)}
			curves[i] = faultcurve.HardeningResponse(b, 0.1, 0.25)
		}
		return HardeningProblem{
			Fleet: fleet, Model: core.NewRaft(len(bases)), Curves: curves,
			Budget: 1.0, MaxPerNode: 0.22,
		}
	}
	a1, err := SolveHardening(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		a2, err := SolveHardening(build(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a2.Gap != a1.Gap || a2.Iterations != a1.Iterations {
			t.Fatalf("trial %d: gap/iterations differ: (%v, %d) vs (%v, %d)",
				trial, a2.Gap, a2.Iterations, a1.Gap, a1.Iterations)
		}
		for i := range a1.Spend {
			if a2.Spend[i] != a1.Spend[i] {
				t.Fatalf("trial %d coord %d: %x != %x — solver is nondeterministic",
					trial, i, a2.Spend[i], a1.Spend[i])
			}
		}
	}
}

// TestHardeningCertainFailureNode pins the DProb boundary regression: a
// node with base probability exactly 1 must still attract spend (the
// curve is smooth at the boundary; a zero derivative there would starve
// the node the optimizer should fund most).
func TestHardeningCertainFailureNode(t *testing.T) {
	bases := []float64{1.0, 0.01, 0.01}
	fleet := make(core.Fleet, len(bases))
	curves := make([]faultcurve.Response, len(bases))
	for i, b := range bases {
		fleet[i] = core.Node{Profile: faultcurve.Crash(b)}
		curves[i] = faultcurve.HardeningResponse(b, 0.05, 0.25)
	}
	p := HardeningProblem{Fleet: fleet, Model: core.NewRaft(3), Curves: curves, Budget: 0.5}
	a, err := SolveHardening(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Spend[0] <= 0.4 {
		t.Errorf("the certainly-failing node got %v of 0.5 budget; spend %v", a.Spend[0], a.Spend)
	}
	if a.Optimized.Nines() <= a.Base.Nines() {
		t.Errorf("hardening must help: %v -> %v nines", a.Base.Nines(), a.Optimized.Nines())
	}
}

// TestHardeningFavorsWeakNodes sanity-checks the economics: with
// identical curves, the weakest nodes should receive the most spend.
func TestHardeningFavorsWeakNodes(t *testing.T) {
	p := exemplarProblem()
	a, err := SolveHardening(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Spend[0] < a.Spend[4] {
		t.Errorf("weakest node got %v, strongest %v; expected the weak node to dominate (spend %v)",
			a.Spend[0], a.Spend[4], a.Spend)
	}
}

// TestDomainHardening allocates shock-hardening spend across unequal
// zones: the optimized split must beat both no spend and the uniform
// split, and the worst zone should attract the most money.
func TestDomainHardening(t *testing.T) {
	shocks := []float64{3e-3, 1e-3, 3e-4}
	domains := make(core.DomainSet, len(shocks))
	curves := make([]faultcurve.Response, len(shocks))
	for i, s := range shocks {
		domains[i] = faultcurve.Domain{Name: string(rune('a' + i)), ShockProb: s, CrashMultiplier: 300, ByzMultiplier: 1}
		curves[i] = faultcurve.HardeningResponse(s, 0.05, 0.3)
	}
	fleet := core.UniformCrashFleet(9, 0.004)
	for i := range fleet {
		fleet[i].Domain = domains[i%3].Name
	}
	p := DomainHardeningProblem{
		Fleet:   fleet,
		Model:   core.NewRaft(9),
		Domains: domains,
		Curves:  curves,
		Budget:  1.0,
	}
	a, err := SolveDomainHardening(p, Options{GapTolerance: 1e-7, MaxIterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a.Optimized.Nines() <= a.Base.Nines() {
		t.Errorf("shock hardening must help: base %v, optimized %v", a.Base.Nines(), a.Optimized.Nines())
	}
	if a.NinesGainedOverUniform() < -1e-9 {
		t.Errorf("optimized split (%v nines) lost to uniform (%v)", a.Optimized.Nines(), a.Uniform.Nines())
	}
	if a.Spend[0] < a.Spend[2] {
		t.Errorf("worst zone got %v, best zone %v; spend %v", a.Spend[0], a.Spend[2], a.Spend)
	}
}

// TestHardeningValidation covers the rejection paths.
func TestHardeningValidation(t *testing.T) {
	good := exemplarProblem()
	cases := map[string]func(*HardeningProblem){
		"empty fleet":    func(p *HardeningProblem) { p.Fleet = nil },
		"size mismatch":  func(p *HardeningProblem) { p.Model = core.NewRaft(4) },
		"missing curves": func(p *HardeningProblem) { p.Curves = p.Curves[:2] },
		"nil curve":      func(p *HardeningProblem) { p.Curves[1] = nil },
		"bad curve":      func(p *HardeningProblem) { p.Curves[1] = faultcurve.ExpResponse{P0: 0.1, Floor: 0.2, Scale: 1} },
		"zero budget":    func(p *HardeningProblem) { p.Budget = 0 },
		"NaN budget":     func(p *HardeningProblem) { p.Budget = math.NaN() },
	}
	for name, mutate := range cases {
		p := exemplarProblem()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprint pins determinism, sensitivity, and the non-ExpResponse
// rejection of the cache key.
func TestFingerprint(t *testing.T) {
	p := exemplarProblem()
	fp1, err := p.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := p.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprint not deterministic")
	}
	q := exemplarProblem()
	q.Budget = 2.0
	fp3, err := q.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("budget change must change the fingerprint")
	}
	r := exemplarProblem()
	r.Curves[0] = customResponse{}
	if _, err := r.Fingerprint(Options{}); err == nil {
		t.Fatal("non-ExpResponse curves must be rejected, not silently collided")
	}

	// A probcons-optimize-v1 key recorded while Options still had a
	// LineSearch field: the encoding must not move for any input without a
	// negative zero, and a negative zero is the same problem as +0.
	served := servedProblem(rand.New(rand.NewSource(15)))
	const recorded = "35effdf4dcec9f441ebc4167de10a63a817e1d181767a5a095f02e3ed96311ca"
	if key, err := served.Fingerprint(Options{GapTolerance: 1e-9}); err != nil || key != recorded {
		t.Errorf("served-shape key = %s, %v; recorded %s", key, err, recorded)
	}
	served.Fleet[2].Profile.PByz = 0
	plus, err := served.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	served.Fleet[2].Profile.PByz = math.Copysign(0, -1)
	if minus, err := served.Fingerprint(Options{}); err != nil || minus != plus {
		t.Errorf("p_byz -0 keys %s, %v; p_byz 0 keys %s", minus, err, plus)
	}
}

// TestFingerprintPositional pins the regression where the optimize cache
// key inherited the analyze fingerprint's permutation invariance: the
// cached Spend vector is positional, so permuted fleets MUST get
// different keys even though their analyze Results are identical.
func TestFingerprintPositional(t *testing.T) {
	build := func(profiles []faultcurve.Profile) HardeningProblem {
		fleet := make(core.Fleet, len(profiles))
		curves := make([]faultcurve.Response, len(profiles))
		for i, p := range profiles {
			fleet[i] = core.Node{Profile: p}
			curves[i] = faultcurve.HardeningResponse(0.06, 0.1, 0.25)
		}
		return HardeningProblem{Fleet: fleet, Model: core.NewRaft(len(profiles)), Curves: curves, Budget: 0.3}
	}
	a := build([]faultcurve.Profile{{PByz: 0.06}, {PCrash: 0.06}, {PCrash: 0.06}})
	b := build([]faultcurve.Profile{{PCrash: 0.06}, {PCrash: 0.06}, {PByz: 0.06}})
	fpA, err := a.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := b.Fingerprint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("permuted fleets share a fingerprint: a cached allocation would land on the wrong nodes")
	}
	// And the solves really do differ positionally (the Byzantine node
	// attracts the spend in a's position 0, b's position 2).
	sa, err := SolveHardening(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SolveHardening(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Spend[0] != sb.Spend[2] || sa.Spend[0] == 0 {
		t.Errorf("expected mirrored allocations, got %v and %v", sa.Spend, sb.Spend)
	}
}

type customResponse struct{}

func (customResponse) Prob(float64) float64  { return 0.5 }
func (customResponse) DProb(float64) float64 { return 0 }
func (customResponse) Validate() error       { return nil }

// TestAnalyticGradSingleDPBuild pins the incremental-engine claim: one
// gradient evaluation performs exactly one joint-DP build (the full
// hardened fleet), with every per-coordinate J_{-i} obtained by O(N^2)
// leave-one-out deflation rather than a from-scratch rebuild.
func TestAnalyticGradSingleDPBuild(t *testing.T) {
	p := exemplarProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	obj := p.Objective()
	x := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	out := make([]float64, len(x))
	obj.Grad(x, out) // warm the workspace
	before := dist.JointBuilds()
	obj.Grad(x, out)
	if builds := dist.JointBuilds() - before; builds != 1 {
		t.Errorf("gradient performed %d joint-DP builds, want exactly 1", builds)
	}
}
