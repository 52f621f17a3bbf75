package montecarlo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultcurve"
)

func liveRaftPred(m core.Raft) func(Config) bool {
	return func(c Config) bool {
		crashed, byz := c.Counts()
		return m.Live(crashed, byz)
	}
}

func TestIndependentMatchesExact(t *testing.T) {
	fleet := core.UniformCrashFleet(5, 0.08)
	m := core.NewRaft(5)
	exact := core.MustAnalyze(fleet, m)
	s := Independent{Profiles: fleet.Profiles()}
	est, err := Run(s, liveRaftPred(m), 150_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Live < est.Lo || exact.Live > est.Hi {
		t.Errorf("exact %v outside CI %v", exact.Live, est)
	}
}

func TestIndependentTriState(t *testing.T) {
	// A node cannot be both crashed and Byzantine in one sample.
	profiles := faultcurve.UniformProfiles(6, faultcurve.Profile{PCrash: 0.4, PByz: 0.4})
	s := Independent{Profiles: profiles}
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Crashed: make([]bool, 6), Byz: make([]bool, 6)}
	for i := 0; i < 2000; i++ {
		s.Sample(rng, &cfg)
		for j := range profiles {
			if cfg.Crashed[j] && cfg.Byz[j] {
				t.Fatal("node sampled both crashed and Byzantine")
			}
		}
	}
	// Byzantine marginal ~ 0.4.
	est, _ := Run(s, func(c Config) bool { return c.Byz[0] }, 100_000, 2)
	if math.Abs(est.P-0.4) > 0.01 {
		t.Errorf("byz marginal %v, want 0.4", est.P)
	}
}

func TestRunValidation(t *testing.T) {
	s := Independent{Profiles: faultcurve.UniformProfiles(2, faultcurve.Crash(0.1))}
	if _, err := Run(s, func(Config) bool { return true }, 0, 1); err == nil {
		t.Error("samples=0 must error")
	}
}

func TestRunReproducible(t *testing.T) {
	s := Independent{Profiles: faultcurve.UniformProfiles(4, faultcurve.Crash(0.3))}
	pred := func(c Config) bool { crashed, _ := c.Counts(); return crashed == 0 }
	a, _ := Run(s, pred, 10_000, 99)
	b, _ := Run(s, pred, 10_000, 99)
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
	est, err := RunImportanceTri(faultcurve.UniformProfiles(3, faultcurve.Crash(0.01)), []int{0, 0, 0}, domains,
		TriTilt{Boost: 1}, notLive, 200_000, 11)
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
	dead := func(c Config) bool {
		crashed, byz := c.Counts()
		return !m.Live(crashed, byz)
	}
	ind := Independent{Profiles: faultcurve.UniformProfiles(n, faultcurve.Crash(p))}
	indEst, _ := Run(ind, dead, 300_000, 5)

	corr := BetaCrash{Nodes: n, Mean: p, Rho: 0.5}
	corrEst, _ := Run(corr, dead, 300_000, 5)

	if corrEst.P < 20*indEst.P {
		t.Errorf("correlated unavailability %v not >> independent %v", corrEst.P, indEst.P)
	}
}

func TestBetaCrashMarginalMean(t *testing.T) {
	s := BetaCrash{Nodes: 5, Mean: 0.2, Rho: 0.3}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	est, _ := Run(s, func(c Config) bool { return c.Crashed[2] }, 200_000, 3)
	if math.Abs(est.P-0.2) > 0.01 {
		t.Errorf("marginal %v, want 0.2", est.P)
	}
}

func TestBetaCrashValidate(t *testing.T) {
	bad := []BetaCrash{
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

func TestSampleBetaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := 2.0, 5.0
	var sum, sumSq float64
	const n = 200_000
	for i := 0; i < n; i++ {
		x := sampleBeta(rng, a, b)
		if x < 0 || x > 1 {
			t.Fatalf("beta sample %v out of [0,1]", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	wantMean := a / (a + b)
	if math.Abs(mean-wantMean) > 0.005 {
		t.Errorf("beta mean %v, want %v", mean, wantMean)
	}
	variance := sumSq/n - mean*mean
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(variance-wantVar) > 0.002 {
		t.Errorf("beta var %v, want %v", variance, wantVar)
	}
}

func TestSampleGammaMean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		var sum float64
		const n = 100_000
		for i := 0; i < n; i++ {
			sum += sampleGamma(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("gamma(%v) mean %v", shape, mean)
		}
	}
	if sampleGamma(rng, 0) != 0 {
		t.Error("gamma(0) must be 0")
	}
}

func TestConfigCounts(t *testing.T) {
	c := Config{Crashed: []bool{true, false, true}, Byz: []bool{false, true, false}}
	crashed, byz := c.Counts()
	if crashed != 2 || byz != 1 {
		t.Errorf("counts = %d,%d", crashed, byz)
	}
	if c.N() != 3 {
		t.Errorf("N=%d", c.N())
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{P: 0.5, Lo: 0.4, Hi: 0.6, Samples: 100}
	if e.String() == "" {
		t.Error("empty String")
	}
}
