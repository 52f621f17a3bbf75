package core

import (
	"math"
	"testing"

	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
)

// This file is the cross-engine golden test: for one fixed N=7 mixed
// fleet (heterogeneous crash AND Byzantine probabilities), the three
// independent analysis engines must agree on Safe, Live, and SafeAndLive:
//
//   - Analyze       — the joint (#crashed, #Byzantine) dynamic program;
//   - AnalyzeSet    — explicit enumeration of all 3^7 configurations;
//   - Monte Carlo   — both core.AnalyzeMonteCarlo and the plain sampler
//     behind internal/montecarlo's RunImportanceTri, which must bracket
//     the exact value (95% Wilson interval, respectively 4 standard
//     errors).
//
// The two exact engines share no code beyond the predicate: one sums a
// trinomial DP table, the other walks 2187 explicit configurations. Their
// agreement to 1e-12 is the strongest internal-consistency check the
// reproduction has.

// goldenFleet returns the fixed N=7 heterogeneous fleet: every node has a
// different fault profile and most mix nonzero crash and Byzantine mass.
func goldenFleet() Fleet {
	profiles := []faultcurve.Profile{
		{PCrash: 0.010, PByz: 0.0010},
		{PCrash: 0.020, PByz: 0.0050},
		{PCrash: 0.005, PByz: 0.0020},
		{PCrash: 0.030, PByz: 0.0100},
		{PCrash: 0.015, PByz: 0.0000},
		{PCrash: 0.000, PByz: 0.0200},
		{PCrash: 0.080, PByz: 0.0040},
	}
	f := make(Fleet, len(profiles))
	for i, p := range profiles {
		f[i] = Node{Name: "golden", Profile: p}
	}
	return f
}

func goldenModels() map[string]CountModel {
	return map[string]CountModel{
		"raft-7": NewRaft(7),
		"pbft-7": PBFT{NNodes: 7, QEq: 5, QPer: 5, QVC: 5, QVCT: 3}, // Table 1's N=7 row
	}
}

func TestGoldenCrossEngineExact(t *testing.T) {
	fleet := goldenFleet()
	for name, m := range goldenModels() {
		dp, err := Analyze(fleet, m)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", name, err)
		}
		safe, live := CountPredicates(m)
		enum, err := AnalyzeSet(fleet, safe, live)
		if err != nil {
			t.Fatalf("%s: AnalyzeSet: %v", name, err)
		}
		for _, c := range []struct {
			field    string
			dp, enum float64
		}{
			{"Safe", dp.Safe, enum.Safe},
			{"Live", dp.Live, enum.Live},
			{"SafeAndLive", dp.SafeAndLive, enum.SafeAndLive},
		} {
			if math.Abs(c.dp-c.enum) > 1e-12 {
				t.Errorf("%s %s: joint DP %.17g vs 3^N enumeration %.17g (diff %g)",
					name, c.field, c.dp, c.enum, math.Abs(c.dp-c.enum))
			}
		}
		// Sanity: the golden fleet is neither perfect nor hopeless.
		if dp.SafeAndLive <= 0.5 || dp.SafeAndLive >= 1 {
			t.Errorf("%s: golden S&L = %v outside (0.5, 1)", name, dp.SafeAndLive)
		}
	}
}

func TestGoldenMonteCarloBracketsExact(t *testing.T) {
	fleet := goldenFleet()
	const samples = 200000
	for name, m := range goldenModels() {
		exact := MustAnalyze(fleet, m)
		mc, err := AnalyzeMonteCarlo(fleet, m, samples, 42)
		if err != nil {
			t.Fatalf("%s: AnalyzeMonteCarlo: %v", name, err)
		}
		for _, c := range []struct {
			field  string
			want   float64
			lo, hi float64
		}{
			{"Safe", exact.Safe, mc.SafeLo, mc.SafeHi},
			{"Live", exact.Live, mc.LiveLo, mc.LiveHi},
			{"SafeAndLive", exact.SafeAndLive, mc.BothLo, mc.BothHi},
		} {
			if c.want < c.lo || c.want > c.hi {
				t.Errorf("%s %s: exact %.8f outside Wilson 95%% [%.8f, %.8f] at %d samples",
					name, c.field, c.want, c.lo, c.hi, samples)
			}
		}
	}
}

// TestGoldenIndependentSamplerAgrees drives the third engine through the
// internal/montecarlo package's own front door — RunImportanceTri at
// Boost 1, the plain sampler, on its own seed and with its own estimator
// (a weighted mean and standard error, not a Wilson interval) — closing
// the loop between packages.
func TestGoldenIndependentSamplerAgrees(t *testing.T) {
	fleet := goldenFleet()
	member := make([]int, len(fleet))
	for i := range member {
		member[i] = -1
	}
	for name, m := range goldenModels() {
		exact := MustAnalyze(fleet, m)
		pred := func(c, b int) bool { return m.Safe(c, b) && m.Live(c, b) }
		est, err := montecarlo.RunImportanceTri(fleet.Profiles(), member, nil, montecarlo.TriTilt{Boost: 1}, pred, 200000, 7)
		if err != nil {
			t.Fatalf("%s: montecarlo.RunImportanceTri: %v", name, err)
		}
		if est.StdErr <= 0 || math.Abs(est.P-exact.SafeAndLive) > 4*est.StdErr {
			t.Errorf("%s: exact S&L %.8f vs sampled %v", name, exact.SafeAndLive, est)
		}
	}
}
