package optimize

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// domainExemplar is the shock-hardening exemplar of TestDomainHardening,
// shared by the objective pins below (the root package's
// BenchmarkOptimizeDomainHardening solves the same shape).
func domainExemplar() DomainHardeningProblem {
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
	return DomainHardeningProblem{
		Fleet:   fleet,
		Model:   core.NewRaft(9),
		Domains: domains,
		Curves:  curves,
		Budget:  1.0,
	}
}

// TestDomainHardeningCachedMatchesReference pins that the cached
// objective computes the same function the throwaway engines define:
// spot-check several spend vectors against the 2^D conditioning referee.
func TestDomainHardeningCachedMatchesReference(t *testing.T) {
	p := domainExemplar()
	obj := p.Objective()
	for _, x := range [][]float64{
		{0, 0, 0},
		{0.5, 0.3, 0.2},
		{1, 0, 0},
		{0.1, 0.1, 0.8},
	} {
		got := obj.Value(x)
		want, err := core.AnalyzeDomainsConditioned(p.Fleet, p.Model, p.domainsAt(x))
		if err != nil {
			t.Fatal(err)
		}
		// f = ln(U) amplifies the engines' ~1e-16 absolute agreement on
		// SafeAndLive by 1/U (here U ~ 1e-6), so the log-space tolerance
		// is correspondingly wider than the 1e-12 Result pin.
		ref := logUnavail(want)
		if diff := got - ref; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("objective at %v: %v vs reference %v (diff %g)", x, got, ref, diff)
		}
	}
}

// TestNodeHardeningWithDomainsBlockReuse covers the node-hardening
// problem on a correlated layout: one gradient is one walk, whose
// remainder fold is a build, and a leave-one-out per branch of each domain
// that starts from the walk's tables, plus the remainder's leave-one-out
// from the empty table. So it performs exactly two counted builds, however
// many nodes and domains.
func TestNodeHardeningWithDomainsBlockReuse(t *testing.T) {
	dp := domainExemplar()
	for _, n := range []int{9, 27, 81} {
		fleet := core.UniformCrashFleet(n, 0.004)
		curves := make([]faultcurve.Response, n)
		for i := range fleet {
			fleet[i].Domain = dp.Domains[i%3].Name
			if i%4 == 3 {
				fleet[i].Domain = "" // some independent nodes
			}
			curves[i] = faultcurve.HardeningResponse(0.004, 0.1, 0.25)
		}
		p := HardeningProblem{Fleet: fleet, Model: core.NewRaft(n), Domains: dp.Domains, Curves: curves, Budget: 0.5}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		obj := p.Objective()
		x, out := make([]float64, n), make([]float64, n)
		obj.Grad(x, out) // size the workspaces
		for _, spend := range []float64{0, 0.25} {
			x[4] = spend
			start := dist.JointBuilds()
			obj.Grad(x, out)
			if builds := dist.JointBuilds() - start; builds != 2 {
				t.Fatalf("n=%d: a gradient performed %d builds, want 2 (the walk's remainder and its leave-one-out)", n, builds)
			}
		}
	}
}

// TestGradientAgreementUnderDomains pins both objectives' analytic
// gradients on the correlated exemplar — shock spend, and node spend with
// the zones' shocks fixed — to central differences of their values
// (CentralDiffGrad), which err by up to ~5e-5 relative here, at 1e-3: the
// chain rule through the response curves and U, not the engine's
// derivatives (TestGradientMatchesReferee pins those).
func TestGradientAgreementUnderDomains(t *testing.T) {
	dp := domainExemplar()
	curves := make([]faultcurve.Response, len(dp.Fleet))
	for i := range curves {
		curves[i] = faultcurve.HardeningResponse(0.004, 0.1, 0.25)
	}
	np := HardeningProblem{Fleet: dp.Fleet, Model: dp.Model, Domains: dp.Domains, Curves: curves, Budget: 0.5}
	for _, tc := range []struct {
		name string
		obj  Objective
		xs   [][]float64
	}{
		{"shock spend", dp.Objective(), [][]float64{{0, 0, 0}, {0.5, 0.3, 0.2}, {0.1, 0.1, 0.8}}},
		{"node spend", np.Objective(), [][]float64{make([]float64, 9), {0.05, 0, 0.1, 0, 0.05, 0.02, 0, 0.1, 0.15}}},
	} {
		for _, x := range tc.xs {
			analytic, numeric := make([]float64, len(x)), make([]float64, len(x))
			tc.obj.Grad(x, analytic)
			CentralDiffGrad(tc.obj.Value, x, 0, numeric)
			for i := range x {
				if diff := math.Abs(analytic[i] - numeric[i]); !(diff <= 1e-3*math.Abs(numeric[i])) {
					t.Errorf("%s at %v coord %d: analytic %v vs central-diff %v", tc.name, x, i, analytic[i], numeric[i])
				}
			}
		}
	}
}
