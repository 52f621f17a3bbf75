package montecarlo_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
)

// An external test package: internal/core samples through this one.

// independent returns the membership of a fleet with no failure domains.
func independent(n int) []int {
	member := make([]int, n)
	for i := range member {
		member[i] = -1
	}
	return member
}

// untilted is the plain sampler: the kernel at Boost 1 with no shock tilt
// draws from the true measure, and every weight is exp(0) = 1.
var untilted = montecarlo.TriTilt{Boost: 1}

func TestIndependentMatchesExact(t *testing.T) {
	fleet := core.UniformCrashFleet(5, 0.08)
	m := core.NewRaft(5)
	exact := core.MustAnalyze(fleet, m)
	live := func(crashed, byz int) bool { return m.Live(crashed, byz) }
	est, err := montecarlo.RunImportanceTri(fleet.Profiles(), independent(5), nil, untilted, live, 150_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if est.StdErr <= 0 || math.Abs(est.P-exact.Live) > 4*est.StdErr {
		t.Errorf("exact %v vs sampled %v", exact.Live, est)
	}
}

func TestIndependentTriState(t *testing.T) {
	// A node cannot be both crashed and Byzantine in one sample, and the
	// per-node outcomes agree with the counts Next returns.
	profiles := faultcurve.UniformProfiles(6, faultcurve.Profile{PCrash: 0.4, PByz: 0.4})
	var d montecarlo.Draws
	if err := d.Reset(profiles, independent(6), nil, untilted); err != nil {
		t.Fatal(err)
	}
	s := montecarlo.NewStream(2)
	const samples = 100_000
	byz0 := 0
	for k := 0; k < samples; k++ {
		crashed, byz := d.Next(s)
		if logW := montecarlo.LogW(&d); logW != 0 {
			t.Fatalf("untilted draw has log-weight %v", logW)
		}
		for j := range profiles {
			c, b := d.Node(j)
			if c && b {
				t.Fatal("node sampled both crashed and Byzantine")
			}
			if c {
				crashed--
			}
			if b {
				byz--
			}
		}
		if crashed != 0 || byz != 0 {
			t.Fatalf("per-node outcomes disagree with Next's counts by %d crashed, %d byzantine", crashed, byz)
		}
		if _, b := d.Node(0); b {
			byz0++
		}
	}
	// Byzantine marginal ~ 0.4.
	if p := float64(byz0) / samples; math.Abs(p-0.4) > 0.01 {
		t.Errorf("byz marginal %v, want 0.4", p)
	}
}

func TestRunValidation(t *testing.T) {
	s := montecarlo.BetaCrash{Nodes: 2, Mean: 0.1, Rho: 0.3}
	if _, err := montecarlo.Run(s, func(montecarlo.Config) bool { return true }, 0, 1); err == nil {
		t.Error("samples=0 must error")
	}
}

func TestRunReproducible(t *testing.T) {
	s := montecarlo.BetaCrash{Nodes: 4, Mean: 0.3, Rho: 0.3}
	pred := func(c montecarlo.Config) bool { crashed, _ := c.Counts(); return crashed == 0 }
	a, _ := montecarlo.Run(s, pred, 10_000, 99)
	b, _ := montecarlo.Run(s, pred, 10_000, 99)
	if a.P != b.P {
		t.Errorf("same seed differs: %v vs %v", a.P, b.P)
	}
}

func TestCommonCauseSamplerMatchesExactMixture(t *testing.T) {
	// A fleet-wide common-cause shock is one domain every node belongs to.
	// Its exact unavailability is the shock-weighted mix of the base and
	// the elevated fleet's; the untilted shock-first sampler must agree.
	const shock, mult = 0.3, 20
	m := core.NewRaft(3)
	base := core.MustAnalyze(core.UniformCrashFleet(3, 0.01), m)
	up := core.MustAnalyze(core.UniformCrashFleet(3, 0.01*mult), m)
	want := 1 - ((1-shock)*base.Live + shock*up.Live)
	domains := []faultcurve.Domain{{Name: "fleet", ShockProb: shock, CrashMultiplier: mult, ByzMultiplier: 1}}
	notLive := func(crashed, byz int) bool { return !m.Live(crashed, byz) }
	est, err := montecarlo.RunImportanceTri(faultcurve.UniformProfiles(3, faultcurve.Crash(0.01)), []int{0, 0, 0}, domains,
		untilted, notLive, 200_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if est.StdErr <= 0 || math.Abs(est.P-want) > 4*est.StdErr {
		t.Errorf("exact shock-mixture unavailability %v vs sampled %v", want, est)
	}
}

func TestCorrelationHurtsTail(t *testing.T) {
	// Same marginal failure probability; correlated samples must make
	// "majority down" far more likely than independent ones.
	const n, p = 9, 0.08
	m := core.NewRaft(n)
	notLive := func(crashed, byz int) bool { return !m.Live(crashed, byz) }
	indEst, err := montecarlo.RunImportanceTri(faultcurve.UniformProfiles(n, faultcurve.Crash(p)), independent(n), nil,
		untilted, notLive, 300_000, 5)
	if err != nil {
		t.Fatal(err)
	}

	corr := montecarlo.BetaCrash{Nodes: n, Mean: p, Rho: 0.5}
	corrEst, _ := montecarlo.Run(corr, func(c montecarlo.Config) bool { return notLive(c.Counts()) }, 300_000, 5)

	if corrEst.P < 20*indEst.P {
		t.Errorf("correlated unavailability %v not >> independent %v", corrEst.P, indEst.P)
	}
}

func TestBetaCrashMarginalMean(t *testing.T) {
	s := montecarlo.BetaCrash{Nodes: 5, Mean: 0.2, Rho: 0.3}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	est, _ := montecarlo.Run(s, func(c montecarlo.Config) bool { return c.Crashed[2] }, 200_000, 3)
	if math.Abs(est.P-0.2) > 0.01 {
		t.Errorf("marginal %v, want 0.2", est.P)
	}
}

func TestBetaCrashValidate(t *testing.T) {
	bad := []montecarlo.BetaCrash{
		{Nodes: 0, Mean: 0.1, Rho: 0.5},
		{Nodes: 3, Mean: 0, Rho: 0.5},
		{Nodes: 3, Mean: 1, Rho: 0.5},
		{Nodes: 3, Mean: 0.1, Rho: 0},
		{Nodes: 3, Mean: 0.1, Rho: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid sampler accepted: %+v", s)
		}
	}
}

func TestConfigCounts(t *testing.T) {
	c := montecarlo.Config{Crashed: []bool{true, false, true}, Byz: []bool{false, true, false}}
	crashed, byz := c.Counts()
	if crashed != 2 || byz != 1 {
		t.Errorf("counts = %d,%d", crashed, byz)
	}
	if c.N() != 3 {
		t.Errorf("N=%d", c.N())
	}
}

func TestEstimateString(t *testing.T) {
	e := montecarlo.Estimate{P: 0.5, Lo: 0.4, Hi: 0.6, Samples: 100}
	if e.String() == "" {
		t.Error("empty String")
	}
}
