package montecarlo

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faultcurve"
)

// sameEstimate is bit equality, field by field: stricter than == (it
// tells -0 from +0) and well defined when a degenerate fixture yields NaN.
func sameEstimate(a, b ImportanceEstimate) bool {
	bits := math.Float64bits
	return bits(a.P) == bits(b.P) && bits(a.StdErr) == bits(b.StdErr) &&
		a.Samples == b.Samples && bits(a.EffectiveSamples) == bits(b.EffectiveSamples)
}

// negZero is -0.0, which a Go constant expression cannot spell.
var negZero = math.Copysign(0, -1)

// edgeProfiles are the node shapes the table has to survive: a zero or
// negative-zero component, mass at and past MaxTiltMass, mass exactly 1,
// deep-tail masses the boost multiplies by thousands, Byzantine-only
// nodes, and — the sampler does not validate profiles — negative and NaN
// components, which the old loop's float compares quietly never hit.
var edgeProfiles = []faultcurve.Profile{
	{PCrash: 0, PByz: 0},
	{PCrash: negZero, PByz: negZero},
	{PCrash: 0.01, PByz: 0},
	{PCrash: 0, PByz: 0.003},
	{PCrash: negZero, PByz: 0.02},
	{PCrash: 0.04, PByz: negZero},
	{PCrash: 0.3, PByz: 0.2},  // mass == MaxTiltMass
	{PCrash: 0.5, PByz: 0.25}, // mass > MaxTiltMass
	{PCrash: 0.75, PByz: 0.25},
	{PCrash: 1, PByz: 0},
	{PCrash: 0, PByz: 1},
	{PCrash: 2e-4, PByz: 0},
	{PCrash: 1e-9, PByz: 1e-12},
	{PCrash: 0.2, PByz: 0.1},
	{PCrash: 0.2, PByz: -0.05}, // second threshold below the first
	{PCrash: -0.1, PByz: 0.3},
	{PCrash: math.NaN(), PByz: 0.1},
}

func randomProfile(rng *rand.Rand) faultcurve.Profile {
	if rng.Intn(2) == 0 {
		return edgeProfiles[rng.Intn(len(edgeProfiles))]
	}
	f := math.Pow(10, -6*rng.Float64())
	split := rng.Float64()
	return faultcurve.Profile{PCrash: f * split, PByz: f * (1 - split)}
}

func randomDomain(rng *rand.Rand) faultcurve.Domain {
	shocks := []float64{0, negZero, 1, 0.5, 1e-3, rng.Float64()}
	// 1: no elevation; 3/50: ordinary; 1e3/1e7: the elevated mass passes 1
	// and Elevate renormalises; 0: a shock that heals.
	mults := []float64{1, 3, 50, 1e3, 1e7, 0}
	return faultcurve.Domain{
		ShockProb:       shocks[rng.Intn(len(shocks))],
		CrashMultiplier: mults[rng.Intn(len(mults))],
		ByzMultiplier:   mults[rng.Intn(len(mults))],
	}
}

// randomPred picks one of the predicate shapes the service serves: total
// failures, Byzantine count alone, or a mix.
func randomPred(rng *rand.Rand, n int) TriPred {
	k := rng.Intn(n + 1)
	switch rng.Intn(4) {
	case 0:
		return func(c, b int) bool { return c+b >= k }
	case 1:
		return func(c, b int) bool { return b >= k }
	case 2:
		return func(c, b int) bool { return c+2*b >= k }
	default:
		return func(int, int) bool { return true }
	}
}

// TestKernelMatchesOracleTri is the bit-identity pin: over random fleets,
// domain layouts, tilts and seeds — edge profiles and shocks included —
// the table-driven kernel returns exactly the estimate the historical
// per-draw loop returns.
func TestKernelMatchesOracleTri(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	boosts := []float64{0, 0.5, 1, 1.5, 7, 400, 1e6, math.Inf(1)}
	shockTilts := []float64{0, 0, 0.5, 0.25, 0.999}
	hits := 0
	const fixtures = 1500
	for f := 0; f < fixtures; f++ {
		n := 1 + rng.Intn(12)
		profiles := make([]faultcurve.Profile, n)
		for i := range profiles {
			profiles[i] = randomProfile(rng)
		}
		domains := make([]faultcurve.Domain, rng.Intn(4))
		for d := range domains {
			domains[d] = randomDomain(rng)
		}
		member := make([]int, n)
		for i := range member {
			member[i] = rng.Intn(len(domains)+1) - 1
		}
		tilt := TriTilt{Boost: boosts[rng.Intn(len(boosts))], ShockProb: shockTilts[rng.Intn(len(shockTilts))]}
		if rng.Intn(3) == 0 {
			tilt = TiltForCount(profiles, 1+rng.Intn(n), len(domains) > 0)
		}
		pred := randomPred(rng, n)
		samples, seed := 1+rng.Intn(400), rng.Int63()

		got, err := RunImportanceTri(profiles, member, domains, tilt, pred, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refImportanceTri(profiles, member, domains, tilt, pred, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(got, want) {
			t.Fatalf("fixture %d: kernel %+v != oracle %+v\nprofiles %+v\nmember %v\ndomains %+v\ntilt %+v samples %d seed %d",
				f, got, want, profiles, member, domains, tilt, samples, seed)
		}
		if got.P > 0 {
			hits++
		}
	}
	// The fixtures must exercise the weights, not only agree on zero.
	if hits < fixtures/2 {
		t.Errorf("only %d of %d fixtures hit their event", hits, fixtures)
	}
}

// TestKernelMatchesOracleServed repeats the pin at the shape /v1/tail
// serves (N = 25, four shocked zones, the service's own tilt), five seeds with and without domains.
func TestKernelMatchesOracleServed(t *testing.T) {
	for _, withDomains := range []bool{false, true} {
		profiles, member, domains := servedFleet(withDomains)
		tilt := TiltForCount(profiles, 13, withDomains)
		pred := func(c, b int) bool { return c+b >= 13 }
		for seed := int64(1); seed <= 5; seed++ {
			got, err := RunImportanceTri(profiles, member, domains, tilt, pred, 20_000, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refImportanceTri(profiles, member, domains, tilt, pred, 20_000, seed)
			if !sameEstimate(got, want) {
				t.Errorf("domains=%v seed %d: kernel %+v != oracle %+v", withDomains, seed, got, want)
			}
			if got.P <= 0 {
				t.Errorf("domains=%v seed %d: event never hit", withDomains, seed)
			}
		}
	}
}

// servedFleet is a 25-node fleet in the benchmark's solver_mix range
// (p_crash 0.05..0.15, p_byz 0..0.001), optionally spread over four shocked
// zones with one node left independent.
func servedFleet(withDomains bool) ([]faultcurve.Profile, []int, []faultcurve.Domain) {
	rng := rand.New(rand.NewSource(25))
	profiles := make([]faultcurve.Profile, 25)
	member := make([]int, 25)
	for i := range profiles {
		profiles[i] = faultcurve.Profile{PCrash: 0.05 + 0.1*rng.Float64(), PByz: 0.001 * rng.Float64()}
		member[i] = -1
	}
	if !withDomains {
		return profiles, member, nil
	}
	domains := make([]faultcurve.Domain, 4)
	for d := range domains {
		domains[d] = faultcurve.Domain{ShockProb: 0.001 * float64(d+1), CrashMultiplier: 3, ByzMultiplier: 5}
	}
	for i := 1; i < len(member); i++ {
		member[i] = i % 4
	}
	return profiles, member, domains
}

// enumerateTri sums P[pred] exactly over every shock pattern and every
// correct/crashed/Byzantine assignment — 2^D · 3^N terms.
func enumerateTri(profiles []faultcurve.Profile, member []int, domains []faultcurve.Domain, pred TriPred) float64 {
	n := len(profiles)
	total := 0.0
	for pattern := 0; pattern < 1<<len(domains); pattern++ {
		pShock := 1.0
		for d, dom := range domains {
			if pattern>>d&1 == 1 {
				pShock *= dom.ShockProb
			} else {
				pShock *= 1 - dom.ShockProb
			}
		}
		eff := make([]faultcurve.Profile, n)
		for i, p := range profiles {
			if m := member[i]; m >= 0 && pattern>>m&1 == 1 {
				p = domains[m].Elevate(p)
			}
			eff[i] = p
		}
		states := 1
		for i := 0; i < n; i++ {
			states *= 3
		}
		for code := 0; code < states; code++ {
			pr, crashed, byz := pShock, 0, 0
			for i, c := 0, code; i < n; i, c = i+1, c/3 {
				switch c % 3 {
				case 0:
					pr *= 1 - eff[i].PCrash - eff[i].PByz
				case 1:
					pr *= eff[i].PCrash
					crashed++
				default:
					pr *= eff[i].PByz
					byz++
				}
			}
			if pred(crashed, byz) {
				total += pr
			}
		}
	}
	return total
}

func TestImportanceTriMatchesEnumeration(t *testing.T) {
	profiles := []faultcurve.Profile{
		{PCrash: 0.01, PByz: 0.002}, {PCrash: 0.02, PByz: 0.001}, {PCrash: 0.005, PByz: 0.005},
		{PCrash: 0.03}, {PByz: 0.004}, {PCrash: 0.015, PByz: 0.0005},
	}
	member := []int{0, 0, 1, 1, -1, 0}
	domains := []faultcurve.Domain{
		{ShockProb: 0.01, CrashMultiplier: 10, ByzMultiplier: 3},
		{ShockProb: 0.002, CrashMultiplier: 25, ByzMultiplier: 40},
	}
	cases := []struct {
		name string
		kMin int
		pred TriPred
	}{
		{"four failures", 4, func(c, b int) bool { return c+b >= 4 }},
		{"two byzantine", 2, func(c, b int) bool { return b >= 2 }},
		{"pbft-like", 2, func(c, b int) bool { return b >= 2 || c+b >= 4 }},
	}
	for _, tc := range cases {
		want := enumerateTri(profiles, member, domains, tc.pred)
		for _, withShocks := range []bool{false, true} {
			est, err := RunImportanceTri(profiles, member, domains, TiltForCount(profiles, tc.kMin, withShocks), tc.pred, 200_000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if est.StdErr <= 0 || math.Abs(est.P-want) > 4*est.StdErr {
				t.Errorf("%s (shock tilt %v): estimate %v vs enumeration %.6g", tc.name, withShocks, est, want)
			}
		}
	}
}

func TestImportanceTriTrivialPredicate(t *testing.T) {
	// The likelihood ratios average to 1 under any proposal.
	profiles, member, domains := servedFleet(true)
	for _, tilt := range []TriTilt{{Boost: 1}, {Boost: 4}, {Boost: 4, ShockProb: 0.5}} {
		est, err := RunImportanceTri(profiles, member, domains, tilt, func(int, int) bool { return true }, 100_000, 9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.P-1) > 4*est.StdErr {
			t.Errorf("tilt %+v: total mass %v, want 1", tilt, est)
		}
		if est.EffectiveSamples <= 0 || est.EffectiveSamples > float64(est.Samples)*(1+1e-12) {
			t.Errorf("tilt %+v: ESS %v out of (0, %d]", tilt, est.EffectiveSamples, est.Samples)
		}
	}
}

func TestImportanceTriValidation(t *testing.T) {
	profiles := faultcurve.UniformProfiles(3, faultcurve.Crash(0.1))
	domains := []faultcurve.Domain{{ShockProb: 0.1, CrashMultiplier: 2, ByzMultiplier: 1}}
	ok := []int{0, -1, 0}
	pred := func(int, int) bool { return true }
	cases := []struct {
		name    string
		member  []int
		tilt    TriTilt
		samples int
		want    string
	}{
		{"membership length", []int{0, -1}, TriTilt{Boost: 2}, 10, "2 memberships for 3 nodes"},
		{"domain past the end", []int{0, 1, 0}, TriTilt{Boost: 2}, 10, "references domain 1 of 1"},
		{"domain below -1", []int{0, -2, 0}, TriTilt{Boost: 2}, 10, "references domain -2 of 1"},
		{"zero samples", ok, TriTilt{Boost: 2}, 0, "need samples > 0"},
		{"negative samples", ok, TriTilt{Boost: 2}, -5, "need samples > 0"},
		{"negative shock tilt", ok, TriTilt{Boost: 2, ShockProb: -0.1}, 10, "out of [0, 1)"},
		{"shock tilt of one", ok, TriTilt{Boost: 2, ShockProb: 1}, 10, "out of [0, 1)"},
		{"NaN shock tilt", ok, TriTilt{Boost: 2, ShockProb: math.NaN()}, 10, "out of [0, 1)"},
		{"NaN boost", ok, TriTilt{Boost: math.NaN()}, 10, "boost NaN is not a number"},
	}
	for _, tc := range cases {
		_, err := RunImportanceTri(profiles, tc.member, domains, tc.tilt, pred, tc.samples, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := RunImportanceTri(profiles, ok, domains, TriTilt{}, pred, 10, 1); err != nil {
		t.Errorf("zero tilt rejected: %v", err)
	}
}

func TestTiltForCount(t *testing.T) {
	profiles := faultcurve.UniformProfiles(10, faultcurve.Profile{PCrash: 0.01, PByz: 0.01})
	if got := TiltForCount(profiles, 4, true); math.Abs(got.Boost-20) > 1e-9 || got.ShockProb != 0.5 {
		t.Errorf("TiltForCount(k=4) = %+v, want boost 20, shock 0.5", got)
	}
	// An event the fleet already expects, or a massless fleet, is left untilted.
	if got := TiltForCount(faultcurve.UniformProfiles(10, faultcurve.Crash(0.5)), 4, false); got != (TriTilt{Boost: 1}) {
		t.Errorf("expected count above k: %+v", got)
	}
	if got := TiltForCount(faultcurve.UniformProfiles(3, faultcurve.Profile{}), 2, false); got != (TriTilt{Boost: 1}) {
		t.Errorf("massless fleet: %+v", got)
	}
}

// TestImportanceAllocationsIndependentOfSamples pins where a run may
// allocate: the tables and the generator, once — never in the sample loop.
func TestImportanceAllocationsIndependentOfSamples(t *testing.T) {
	profiles, member, domains := servedFleet(true)
	tilt := TiltForCount(profiles, 13, true)
	pred := func(c, b int) bool { return c+b >= 13 }
	run := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunImportanceTri(profiles, member, domains, tilt, pred, samples, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := run(10), run(5000)
	if few != many {
		t.Errorf("RunImportanceTri: %v allocs at 10 samples, %v at 5000", few, many)
	}
	if many > 8 {
		t.Errorf("RunImportanceTri: %v allocs per run, want tables + generator only (<= 8)", many)
	}
}

var benchSink ImportanceEstimate

// BenchmarkImportanceTri times one run at the shape /v1/tail serves:
// N = 25, 50 000 samples, with and without four shocked domains. ns/draw
// is per uniform draw (one per domain and per node per sample).
func BenchmarkImportanceTri(b *testing.B) {
	const samples = 50_000
	for _, withDomains := range []bool{false, true} {
		name := "N25"
		if withDomains {
			name = "N25_4domains"
		}
		b.Run(name, func(b *testing.B) {
			profiles, member, domains := servedFleet(withDomains)
			tilt := TiltForCount(profiles, 13, withDomains)
			pred := func(c, b int) bool { return c+b >= 13 }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := RunImportanceTri(profiles, member, domains, tilt, pred, samples, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = est
			}
			draws := float64(b.N) * samples * float64(len(profiles)+len(domains))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/draws, "ns/draw")
		})
	}
	// The generator alone, as many draws as one N25 run takes: the stream
	// read a sample at a time the way Draws.Next reads it, and the
	// rand.Rand.Float64 loop the kernel drew from before. Their difference
	// is what the stream saves per draw; N25 minus "stream" is the loop.
	const n = 25
	for _, gen := range []string{"stream", "rand"} {
		b.Run("generator/"+gen, func(b *testing.B) {
			xs := make([]uint64, n)
			var acc uint64
			for i := 0; i < b.N; i++ {
				if gen == "rand" {
					rng := rand.New(rand.NewSource(int64(i + 1)))
					for k := 0; k < samples*n; k++ {
						acc ^= math.Float64bits(rng.Float64())
					}
					continue
				}
				s := NewStream(int64(i + 1))
				for k := 0; k < samples; k++ {
					v := s.view(n)
					if v == nil {
						s.read(xs)
						v = xs
					} else {
						s.pos += n
					}
					for _, x := range v {
						acc ^= x &^ (1 << 63)
					}
				}
			}
			benchSink.Samples = int(acc)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*samples*n), "ns/draw")
		})
	}
}
