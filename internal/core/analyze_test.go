package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/faultcurve"
	"repro/internal/quorum"
)

func randomFleet(rng *rand.Rand, n int, maxP float64) Fleet {
	f := make(Fleet, n)
	for i := range f {
		pc := rng.Float64() * maxP
		pb := rng.Float64() * maxP * 0.2
		f[i] = Node{Profile: faultcurve.Profile{PCrash: pc, PByz: pb}}
	}
	return f
}

// TestDPMatchesEnumeration cross-validates the two exact engines on random
// heterogeneous tri-state fleets for both protocol models.
func TestDPMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		fleet := randomFleet(rng, n, 0.3)
		var m CountModel
		if n >= 4 && rng.Intn(2) == 0 {
			m = PBFT{NNodes: n, QEq: n - 1, QPer: n - 1, QVC: n - 1, QVCT: n / 3}
		} else {
			m = NewRaft(n)
		}
		dp, err := Analyze(fleet, m)
		if err != nil {
			return false
		}
		safe, live := CountPredicates(m)
		enum, err := AnalyzeSet(fleet, safe, live)
		if err != nil {
			return false
		}
		const tol = 1e-10
		return math.Abs(dp.Safe-enum.Safe) < tol &&
			math.Abs(dp.Live-enum.Live) < tol &&
			math.Abs(dp.SafeAndLive-enum.SafeAndLive) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMonteCarloConvergesToExact checks the sampler against the DP engine.
func TestMonteCarloConvergesToExact(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.08)
	m := NewRaft(5)
	exact := MustAnalyze(fleet, m)
	mc, err := AnalyzeMonteCarlo(fleet, m, 200_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if exact.SafeAndLive < mc.BothLo || exact.SafeAndLive > mc.BothHi {
		t.Errorf("exact %v outside MC 95%% CI [%v, %v]", exact.SafeAndLive, mc.BothLo, mc.BothHi)
	}
	if math.Abs(mc.SafeAndLive-exact.SafeAndLive) > 0.002 {
		t.Errorf("MC %v vs exact %v", mc.SafeAndLive, exact.SafeAndLive)
	}
	if mc.Samples != 200_000 {
		t.Errorf("Samples=%d", mc.Samples)
	}
	// There is one plain sampler: the domain-free entry draws the domain
	// sampler's stream.
	if viaDomains, err := AnalyzeDomainsMonteCarlo(fleet, m, nil, 200_000, 42); err != nil || viaDomains != mc {
		t.Errorf("AnalyzeDomainsMonteCarlo(nil) = %+v, %v; AnalyzeMonteCarlo = %+v", viaDomains, err, mc)
	}
}

func TestAnalyzeInputValidation(t *testing.T) {
	if _, err := Analyze(UniformCrashFleet(3, 0.01), NewRaft(5)); err == nil {
		t.Error("fleet/model size mismatch must error")
	}
	bad := Fleet{{Profile: faultcurve.Profile{PCrash: 2}}}
	if _, err := Analyze(bad, NewRaft(1)); err == nil {
		t.Error("invalid profile must error")
	}
	if _, err := AnalyzeMonteCarlo(UniformCrashFleet(3, 0.01), NewRaft(3), 0, 1); err == nil {
		t.Error("zero samples must error")
	}
	if _, err := AnalyzeMonteCarlo(UniformCrashFleet(3, 0.01), NewRaft(5), 10, 1); err == nil {
		t.Error("MC size mismatch must error")
	}
}

// TestNaNProfileRefused: a NaN fault probability passes every `<` and `>`
// range test, and an engine fed one answers with ordinary-looking numbers.
// Every door that takes a fleet refuses it, and no cache key is issued.
func TestNaNProfileRefused(t *testing.T) {
	fleet := UniformCrashFleet(3, 0.01)
	fleet[0].Profile.PCrash = math.NaN()
	if res, err := Analyze(fleet, NewRaft(3)); err == nil {
		t.Errorf("Analyze answered a NaN fleet: %v", res)
	}
	if res, err := AnalyzeDomains(fleet, NewRaft(3), nil); err == nil {
		t.Errorf("AnalyzeDomains answered a NaN fleet: %v", res)
	}
	if fp, err := FleetModelDomainsFingerprint(fleet, NewRaft(3), nil); err == nil {
		t.Errorf("fingerprint issued for a NaN fleet: %v", fp)
	}
}

func TestMustAnalyzePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze must panic on error")
		}
	}()
	MustAnalyze(UniformCrashFleet(3, 0.01), NewRaft(5))
}

func TestEnumerateConfigsTotalsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fleet := randomFleet(rng, 6, 0.4)
	var total float64
	var visits int
	if err := EnumerateConfigs(fleet, func(crashed, byz quorum.Set, p float64) {
		total += p
		visits++
		if crashed.IntersectCount(byz) > 0 {
			t.Fatal("node both crashed and Byzantine")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-1) > 1e-10 {
		t.Errorf("total probability %v", total)
	}
	if visits > 729 {
		t.Errorf("visited %d configs, max 3^6=729", visits)
	}
}

func TestEnumerateConfigsRejectsHugeFleet(t *testing.T) {
	if err := EnumerateConfigs(UniformCrashFleet(25, 0.01), func(_, _ quorum.Set, _ float64) {}); err == nil {
		t.Error("N=25 must be rejected")
	}
}

func TestAnalyzeWithShockMixes(t *testing.T) {
	// A coin-flip fleet-wide shock (one domain holding every node): the
	// analysis is the even mix of the base and the elevated fleet's, and
	// strictly worse than the base fleet's.
	m := NewRaft(3)
	fleet := UniformCrashFleet(3, 0.01)
	for i := range fleet {
		fleet[i].Domain = "fleet"
	}
	mixed, err := AnalyzeDomains(fleet, m, DomainSet{{Name: "fleet", ShockProb: 0.5, CrashMultiplier: 10, ByzMultiplier: 1}})
	if err != nil {
		t.Fatal(err)
	}
	base := MustAnalyze(UniformCrashFleet(3, 0.01), m)
	elevated := MustAnalyze(UniformCrashFleet(3, 0.1), m)
	want := 0.5*base.SafeAndLive + 0.5*elevated.SafeAndLive
	if math.Abs(mixed.SafeAndLive-want) > 1e-12 {
		t.Errorf("shock mix %v, want %v", mixed.SafeAndLive, want)
	}
	if mixed.SafeAndLive >= base.SafeAndLive {
		t.Error("a crash-multiplying shock must reduce reliability")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Safe: 1, Live: 0.999, SafeAndLive: 0.999}
	if math.Abs(r.Nines()-3) > 1e-9 {
		t.Errorf("Nines=%v", r.Nines())
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestFleetHelpers(t *testing.T) {
	f := UniformCrashFleet(3, 0.05)
	probs := f.FailProbs()
	if len(probs) != 3 || probs[1] != 0.05 {
		t.Errorf("FailProbs=%v", probs)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
	byz := UniformByzFleet(4, 0.01)
	for _, n := range byz {
		if n.Profile.PByz != 0.01 || n.Profile.PCrash != 0 {
			t.Errorf("byz fleet profile %+v", n.Profile)
		}
	}
}
