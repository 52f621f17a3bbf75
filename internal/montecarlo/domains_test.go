package montecarlo_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
)

func domainLayout() (core.Fleet, core.DomainSet, []int) {
	fleet := core.UniformCrashFleet(9, 0.02)
	member := make([]int, 9)
	for i := range fleet {
		zone := i % 3
		fleet[i].Domain = []string{"za", "zb", "zc"}[zone]
		member[i] = zone
	}
	domains := core.DomainSet{
		{Name: "za", ShockProb: 0.03, CrashMultiplier: 15, ByzMultiplier: 1},
		{Name: "zb", ShockProb: 0.01, CrashMultiplier: 25, ByzMultiplier: 1},
		{Name: "zc", ShockProb: 0.05, CrashMultiplier: 10, ByzMultiplier: 1},
	}
	return fleet, domains, member
}

// The shock-first sampler of correlated domains is RunImportanceTri; with
// Boost 1 and no shock tilt its proposal is the true measure, so it is a
// plain sampler and these check the measure itself, not the reweighting.

func TestDomainsSamplerMatchesExact(t *testing.T) {
	fleet, domains, member := domainLayout()
	m := core.NewRaft(9)
	exact, err := core.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	notLive := func(crashed, byz int) bool { return !m.Live(crashed, byz) }
	est, err := montecarlo.RunImportanceTri(fleet.Profiles(), member, domains, untilted, notLive, 300_000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - exact.Live; est.StdErr <= 0 || math.Abs(est.P-want) > 4*est.StdErr {
		t.Errorf("exact domain-aware unavailability %v vs sampled %v", want, est)
	}
}

func TestDomainsSamplerShockCouplesZone(t *testing.T) {
	// With one shock-prone rack, three crashes — the whole rack — must be
	// far more likely than independence allows.
	profiles := faultcurve.UniformProfiles(6, faultcurve.Crash(0.01))
	member := []int{0, 0, 0, -1, -1, -1}
	domains := []faultcurve.Domain{{Name: "rack", ShockProb: 0.1, CrashMultiplier: 60, ByzMultiplier: 1}}
	threeDown := func(crashed, _ int) bool { return crashed >= 3 }
	est, err := montecarlo.RunImportanceTri(profiles, member, domains, untilted, threeDown, 200_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Independent bound: C(6,3) · (0.01)^3 = 2e-5. Shock path: 0.1 · 0.6^3 ≈ 0.022.
	if est.P < 0.01 {
		t.Errorf("correlated rack crash probability %v, want ~0.022 >> 2e-5", est.P)
	}
}
