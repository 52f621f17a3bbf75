package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// refAnalyzeDomainsMonteCarlo is AnalyzeDomainsMonteCarlo as it stood
// before it drew through the sampler kernel (montecarlo.Draws), moved here
// verbatim: its own shock-then-node draw loop. It is the reference the
// kernel-backed front door must reproduce exactly — same generator, same
// draw order, same comparisons — and nothing outside the tests calls it.
func refAnalyzeDomainsMonteCarlo(fleet Fleet, m CountModel, domains DomainSet, samples int, seed int64) (MCResult, error) {
	var q Query
	if err := q.resolveValid(fleet, m, domains); err != nil {
		return MCResult{}, err
	}
	if samples <= 0 {
		return MCResult{}, fmt.Errorf("core: need samples > 0, got %d", samples)
	}
	member := q.Members()
	elevated := make([]faultcurve.Profile, len(fleet))
	for i, n := range fleet {
		if di := member[i]; di >= 0 {
			elevated[i] = domains[di].Elevate(n.Profile)
		} else {
			elevated[i] = n.Profile
		}
	}
	rng := rand.New(rand.NewSource(seed))
	shocked := make([]bool, len(domains))
	var nSafe, nLive, nBoth int
	for s := 0; s < samples; s++ {
		for d := range domains {
			shocked[d] = rng.Float64() < domains[d].ShockProb
		}
		var crashed, byz int
		for i, n := range fleet {
			p := n.Profile
			if di := member[i]; di >= 0 && shocked[di] {
				p = elevated[i]
			}
			u := rng.Float64()
			switch {
			case u < p.PCrash:
				crashed++
			case u < p.PCrash+p.PByz:
				byz++
			}
		}
		sOK := m.Safe(crashed, byz)
		lOK := m.Live(crashed, byz)
		if sOK {
			nSafe++
		}
		if lOK {
			nLive++
		}
		if sOK && lOK {
			nBoth++
		}
	}
	out := MCResult{
		Result: Result{
			Safe:        float64(nSafe) / float64(samples),
			Live:        float64(nLive) / float64(samples),
			SafeAndLive: float64(nBoth) / float64(samples),
		},
		Samples: samples,
	}
	out.SafeLo, out.SafeHi = dist.WilsonInterval(nSafe, samples, 1.96)
	out.LiveLo, out.LiveHi = dist.WilsonInterval(nLive, samples, 1.96)
	out.BothLo, out.BothHi = dist.WilsonInterval(nBoth, samples, 1.96)
	return out, nil
}

// TestMonteCarloMatchesOracle pins the kernel-backed AnalyzeDomainsMonteCarlo
// to its historical draw loop with ==, draw for draw, on the shapes the
// two could part on: shocks of 0, 1 and -0, an empty domain, a zero-mass
// node, a node whose crash and Byzantine mass sum to 1, N = 1, and both
// protocols.
func TestMonteCarloMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	mixed := Fleet{
		{Profile: faultcurve.Profile{PCrash: 0.05, PByz: 0.02}, Domain: "za"},
		{Profile: faultcurve.Profile{PCrash: 0.1, PByz: 0}, Domain: "zb"},
		{Profile: faultcurve.Profile{PCrash: 0, PByz: 0}, Domain: "za"}, // zero mass
		{Profile: faultcurve.Profile{PCrash: 0.03, PByz: 0.01}},
		{Profile: faultcurve.Profile{PCrash: 0.6, PByz: 0.4}, Domain: "zb"}, // mass 1
		{Profile: faultcurve.Profile{PCrash: 0, PByz: 0.08}, Domain: "za"},
		{Profile: faultcurve.Profile{PCrash: 0.2, PByz: 0.05}},
	}
	zones := func(sa, sb float64) DomainSet {
		return DomainSet{
			{Name: "za", ShockProb: sa, CrashMultiplier: 6, ByzMultiplier: 4},
			{Name: "empty", ShockProb: 0.5, CrashMultiplier: 9, ByzMultiplier: 9},
			{Name: "zb", ShockProb: sb, CrashMultiplier: 3, ByzMultiplier: 20},
		}
	}
	independent := append(Fleet{}, mixed...)
	for i := range independent {
		independent[i].Domain = ""
	}
	one := func(p faultcurve.Profile, zone string) Fleet { return Fleet{{Profile: p, Domain: zone}} }
	cases := []struct {
		name    string
		fleet   Fleet
		model   CountModel
		domains DomainSet
	}{
		{"pbft-7 two zones and an empty one", mixed, NewPBFTForN(7), zones(0.1, 0.3)},
		{"raft-7 two zones and an empty one", mixed, NewRaft(7), zones(0.1, 0.3)},
		{"pbft-7 shocks 0 and 1", mixed, NewPBFTForN(7), zones(0, 1)},
		{"pbft-7 shocks -0 and 1", mixed, NewPBFTForN(7), zones(negZero, 1)},
		{"pbft-7 no domains", independent, NewPBFTForN(7), nil},
		{"raft-1 shocked", one(faultcurve.Crash(0.2), "za"), NewRaft(1), zones(0.4, 0)},
		{"raft-1 certain crash", one(faultcurve.Crash(1), ""), NewRaft(1), nil},
		{"pbft-1 mixed", one(faultcurve.Profile{PCrash: 0.3, PByz: 0.3}, "zb"), NewPBFTForN(1), zones(0, 0.5)},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 42, 99} {
			got, err := AnalyzeDomainsMonteCarlo(tc.fleet, tc.model, tc.domains, 20_000, seed)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want, err := refAnalyzeDomainsMonteCarlo(tc.fleet, tc.model, tc.domains, 20_000, seed)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tc.name, err)
			}
			if got != want {
				t.Errorf("%s seed %d: kernel %+v != oracle %+v", tc.name, seed, got, want)
			}
		}
	}
}
