package optimize

import (
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
// problem on a correlated layout: a probe perturbs one node, so the rest
// tables of its domain answer after folding only that domain onto them —
// no from-scratch build per probed coordinate, where a cold walk folds the
// independent remainder.
func TestNodeHardeningWithDomainsBlockReuse(t *testing.T) {
	dp := domainExemplar()
	curves := make([]faultcurve.Response, len(dp.Fleet))
	for i := range curves {
		curves[i] = faultcurve.HardeningResponse(0.004, 0.1, 0.25)
	}
	p := HardeningProblem{
		Fleet:   dp.Fleet,
		Model:   dp.Model,
		Domains: dp.Domains,
		Curves:  curves,
		Budget:  0.5,
	}
	if !p.UsesCentralDifferences() {
		t.Fatal("correlated layout must use central differences")
	}
	obj := p.Objective()
	x := make([]float64, len(p.Fleet))
	obj.Value(x) // cold: builds blocks and rest tables
	start := dist.JointBuilds()
	x[4] = 0.25 // perturb one node in zone b
	obj.Value(x)
	builds := dist.JointBuilds() - start
	if builds != 0 {
		t.Fatalf("single-node probe performed %d builds, want 0 (that node's domain folds onto its cached rest tables)", builds)
	}
}
