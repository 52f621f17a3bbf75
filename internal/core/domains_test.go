package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// domainFleet9 is the 3-domain heterogeneous N=9 fleet the acceptance
// criteria name: three zones of three nodes with distinct per-node
// profiles, one zone more failure-prone, mild Byzantine mass sprinkled in.
func domainFleet9() (Fleet, DomainSet) {
	fleet := Fleet{
		{Name: "a0", Profile: faultcurve.Profile{PCrash: 0.010}, Domain: "zone-a"},
		{Name: "a1", Profile: faultcurve.Profile{PCrash: 0.015, PByz: 0.001}, Domain: "zone-a"},
		{Name: "a2", Profile: faultcurve.Profile{PCrash: 0.020}, Domain: "zone-a"},
		{Name: "b0", Profile: faultcurve.Profile{PCrash: 0.040}, Domain: "zone-b"},
		{Name: "b1", Profile: faultcurve.Profile{PCrash: 0.050, PByz: 0.002}, Domain: "zone-b"},
		{Name: "b2", Profile: faultcurve.Profile{PCrash: 0.060}, Domain: "zone-b"},
		{Name: "c0", Profile: faultcurve.Profile{PCrash: 0.005}, Domain: "zone-c"},
		{Name: "c1", Profile: faultcurve.Profile{PCrash: 0.008}, Domain: "zone-c"},
		{Name: "c2", Profile: faultcurve.Profile{PCrash: 0.012, PByz: 0.0005}, Domain: "zone-c"},
	}
	domains := DomainSet{
		{Name: "zone-a", ShockProb: 0.02, CrashMultiplier: 12, ByzMultiplier: 3},
		{Name: "zone-b", ShockProb: 0.005, CrashMultiplier: 8, ByzMultiplier: 1},
		{Name: "zone-c", ShockProb: 0.05, CrashMultiplier: 20, ByzMultiplier: 5},
	}
	return fleet, domains
}

func resultsClose(t *testing.T, tag string, a, b Result, tol float64) {
	t.Helper()
	for _, d := range []struct {
		name   string
		av, bv float64
	}{
		{"safe", a.Safe, b.Safe},
		{"live", a.Live, b.Live},
		{"safe&live", a.SafeAndLive, b.SafeAndLive},
	} {
		if diff := math.Abs(d.av - d.bv); diff > tol {
			t.Errorf("%s %s: %.17g vs %.17g (|Δ|=%.3g > %g)", tag, d.name, d.av, d.bv, diff, tol)
		}
	}
}

func TestDomainEnginesAgree(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	cond, err := AnalyzeDomainsConditioned(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "conditioned vs mixture", cond, mix, 1e-12)

	auto, err := AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "auto vs conditioned", auto, cond, 1e-12)
}

func TestDomainEnginesAgreePBFT(t *testing.T) {
	fleet, domains := domainFleet9()
	// Shift fault mass toward Byzantine so the PBFT predicates bite.
	for i := range fleet {
		fleet[i].Profile.PByz += 0.01
	}
	m := NewPBFTForN(9)
	cond, err := AnalyzeDomainsConditioned(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "pbft conditioned vs mixture", cond, mix, 1e-12)
}

func TestDomainsZeroShockMatchesIndependent(t *testing.T) {
	fleet, domains := domainFleet9()
	for i := range domains {
		domains[i].ShockProb = 0
	}
	m := NewRaft(9)
	indep := MustAnalyze(fleet, m)
	cond, err := AnalyzeDomainsConditioned(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "zero-shock conditioned vs independent", cond, indep, 1e-12)
	mix, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "zero-shock mixture vs independent", mix, indep, 1e-12)
}

func TestDomainsEmptySetIsAnalyze(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.03)
	m := NewRaft(5)
	got, err := AnalyzeDomains(fleet, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != MustAnalyze(fleet, m) {
		t.Fatal("empty DomainSet must reduce to Analyze bit-for-bit")
	}
	// Domains defined but no node is a member: same reduction.
	got, err = AnalyzeDomains(fleet, m, DomainSet{{Name: "unused", ShockProb: 0.5, CrashMultiplier: 100, ByzMultiplier: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got != MustAnalyze(fleet, m) {
		t.Fatal("memberless domains must not perturb the analysis")
	}
}

func TestDomainsMatchAnalyzeWithShock(t *testing.T) {
	// One domain covering the whole fleet is a fleet-wide common-cause
	// shock, whose exact analysis needs no domain engine: faults are
	// independent given the shock outcome, so it is the analysis of the
	// base fleet and of the elevated fleet mixed by the shock probability.
	const shock, mult = 0.01, 30
	fleet := UniformCrashFleet(5, 0.02)
	for i := range fleet {
		fleet[i].Domain = "rollout"
	}
	domains := DomainSet{{Name: "rollout", ShockProb: shock, CrashMultiplier: mult, ByzMultiplier: 1}}
	m := NewRaft(5)
	base := MustAnalyze(UniformCrashFleet(5, 0.02), m)
	up := MustAnalyze(UniformCrashFleet(5, 0.02*mult), m)
	mix := func(b, u float64) float64 { return (1-shock)*b + shock*u }
	want := Result{Safe: mix(base.Safe, up.Safe), Live: mix(base.Live, up.Live), SafeAndLive: mix(base.SafeAndLive, up.SafeAndLive)}
	got, err := AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "single whole-fleet domain vs shock-weighted mix of two Analyze calls", got, want, 1e-12)
}

func TestDomainsMonteCarloBracketsExact(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	exact, err := AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 400_000
	mc, err := AnalyzeDomainsMonteCarlo(fleet, m, domains, samples, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Wilson 99% interval (z = 2.576) from the sampled hit counts.
	check := func(name string, exactP, mcP float64) {
		hits := int(math.Round(mcP * samples))
		lo, hi := dist.WilsonInterval(hits, samples, 2.576)
		if exactP < lo || exactP > hi {
			t.Errorf("%s: exact %v outside Wilson 99%% CI [%v, %v] (MC %v)", name, exactP, lo, hi, mcP)
		}
	}
	check("safe", exact.Safe, mc.Safe)
	check("live", exact.Live, mc.Live)
	check("safe&live", exact.SafeAndLive, mc.SafeAndLive)
}

func TestDomainsValidation(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)

	bad := append(DomainSet{}, domains...)
	bad[0].ShockProb = 1.5
	if _, err := AnalyzeDomains(fleet, m, bad); err == nil {
		t.Error("out-of-range shock probability must be rejected")
	}

	dup := append(DomainSet{}, domains...)
	dup[1].Name = dup[0].Name
	if _, err := AnalyzeDomains(fleet, m, dup); err == nil {
		t.Error("duplicate domain names must be rejected")
	}

	orphan := append(Fleet{}, fleet...)
	orphan[3].Domain = "no-such-zone"
	if _, err := AnalyzeDomains(orphan, m, domains); err == nil {
		t.Error("membership in an undefined domain must be rejected")
	}

	if _, err := AnalyzeDomainsMonteCarlo(fleet, m, domains, 0, 1); err == nil {
		t.Error("samples=0 must be rejected")
	}
	if _, err := AnalyzeDomains(fleet, NewRaft(5), domains); err == nil {
		t.Error("fleet/model size mismatch must be rejected")
	}
}

// TestDomainLayoutRejections pins every rejection of the one domain-layout
// resolver, and its exact wording, through each public door onto it. The
// strings reach clients in the service's 400 bodies.
func TestDomainLayoutRejections(t *testing.T) {
	fleet, domains := domainFleet9()
	badDef := append(DomainSet(nil), domains...)
	badDef[1].ShockProb = 1.5
	dup := append(DomainSet(nil), domains...)
	dup[2].Name = dup[0].Name
	orphan := append(Fleet(nil), fleet...)
	orphan[3].Domain = "no-such-zone"

	cases := []struct {
		name    string
		fleet   Fleet
		m       CountModel
		domains DomainSet
		want    string
	}{
		{"bad definition", fleet, NewRaft(9), badDef, `core: domain 1: faultcurve: domain "zone-b" shock probability 1.5 out of [0, 1]`},
		{"duplicate name", fleet, NewRaft(9), dup, `core: duplicate domain name "zone-a"`},
		{"undefined domain", orphan, NewRaft(9), domains, `core: node 3 (b0) references undefined domain "no-such-zone"`},
		{"undefined domain, empty set", fleet, NewRaft(9), nil, `core: node 0 (a0) references undefined domain "zone-a"`},
		{"size mismatch", fleet, NewRaft(5), domains, `core: fleet size 9 != model N 5`},
	}
	doors := []struct {
		name    string
		modeled bool // the door takes the model, so it can see a size mismatch
		call    func(Fleet, CountModel, DomainSet) error
	}{
		{"DomainSet.Validate", false, func(f Fleet, _ CountModel, ds DomainSet) error { return ds.Validate(f) }},
		{"ResolveDomains", false, func(f Fleet, _ CountModel, ds DomainSet) error { _, err := ResolveDomains(f, ds); return err }},
		{"FleetModelDomainsFingerprint", true, func(f Fleet, m CountModel, ds DomainSet) error {
			_, err := FleetModelDomainsFingerprint(f, m, ds)
			return err
		}},
		{"Evaluator.AnalyzeDomains", true, func(f Fleet, m CountModel, ds DomainSet) error {
			_, err := NewEvaluator().AnalyzeDomains(f, m, ds)
			return err
		}},
		{"AnalyzeDomainsConditioned", true, func(f Fleet, m CountModel, ds DomainSet) error {
			_, err := AnalyzeDomainsConditioned(f, m, ds)
			return err
		}},
	}
	for _, tc := range cases {
		for _, door := range doors {
			err := door.call(tc.fleet, tc.m, tc.domains)
			if tc.name == "size mismatch" && !door.modeled {
				if err != nil {
					t.Errorf("%s: %s: unexpected error %v", tc.name, door.name, err)
				}
				continue
			}
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %s: error %v, want %q", tc.name, door.name, err, tc.want)
			}
		}
	}
	if member, err := ResolveDomains(orphan[:3], domains); err != nil || len(member) != 3 || member[0] != 0 {
		t.Errorf("ResolveDomains on a valid layout = %v, %v", member, err)
	}
}

func TestDomainsWorkEstimate(t *testing.T) {
	fleet, domains := domainFleet9()
	if w := DomainsWorkEstimate(fleet, nil); w != 729 {
		t.Errorf("domain-free estimate = %v, want n^3 = 729", w)
	}
	w := DomainsWorkEstimate(fleet, domains)
	if w <= 0 || math.IsInf(w, 0) {
		t.Errorf("domain estimate = %v", w)
	}
	// The 2^D engine estimate for 3 populated domains is 8·n^3; the picked
	// estimate can never exceed it.
	if w > 8*729 {
		t.Errorf("estimate %v exceeds the conditioned bound %v", w, 8*729)
	}
}

func TestDomainsShockCertainty(t *testing.T) {
	// ShockProb 1 with a huge multiplier drives the domain to certain
	// failure: a 3-zone Raft-9 with one zone certainly down is exactly an
	// independent analysis of the degraded fleet.
	fleet, domains := domainFleet9()
	domains[1].ShockProb = 1
	domains[1].CrashMultiplier = 1e9 // clamps member PCrash to ~1
	m := NewRaft(9)
	got, err := AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := AnalyzeDomainsConditioned(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "certain shock auto vs conditioned", got, cond, 1e-12)
	resultsClose(t, "certain shock mixture vs conditioned", mix, cond, 1e-12)
	if got.Live >= 0.999999 {
		t.Errorf("a certainly-shocked zone should visibly dent liveness, got %v", got.Live)
	}
}
