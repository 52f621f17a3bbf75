package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// heterogeneousFleet builds a deterministic mixed crash/Byzantine fleet.
func heterogeneousFleet(n int) Fleet {
	fleet := make(Fleet, n)
	for i := range fleet {
		fleet[i] = Node{
			Name: fmt.Sprintf("node-%d", i),
			Profile: faultcurve.Profile{
				PCrash: 0.01 + 0.007*float64(i%7),
				PByz:   0.0005 * float64(i%3),
			},
		}
	}
	return fleet
}

// TestEvaluatorMatchesAnalyze pins workspace reuse: one evaluator cycled
// through fleets of several sizes and compositions answers bit-identically
// to throwaway engines.
func TestEvaluatorMatchesAnalyze(t *testing.T) {
	e := NewEvaluator()
	for _, n := range []int{3, 9, 4, 25, 7} {
		fleet := heterogeneousFleet(n)
		m := CountModel(NewRaft(n))
		if n%2 == 0 {
			m = NewPBFTForN(n)
		}
		got, err := e.Analyze(fleet, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(fleet, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: reused evaluator %+v != fresh %+v", n, got, want)
		}
	}
	// Size mismatch and invalid profiles still error through the evaluator.
	if _, err := e.Analyze(heterogeneousFleet(3), NewRaft(4)); err == nil {
		t.Error("size mismatch accepted")
	}
	bad := heterogeneousFleet(3)
	bad[1].Profile.PCrash = 1.5
	if _, err := e.Analyze(bad, NewRaft(3)); err == nil {
		t.Error("invalid profile accepted")
	}
}

// TestEvaluatorAnalyzeZeroAllocs is the allocation-regression guard for
// the hot analyze path: a warmed evaluator answers with zero allocations.
func TestEvaluatorAnalyzeZeroAllocs(t *testing.T) {
	fleet := heterogeneousFleet(25)
	m := CountModel(NewRaft(25))
	e := NewEvaluator()
	if _, err := e.Analyze(fleet, m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := e.Analyze(fleet, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Evaluator.Analyze allocates %v/op, want 0", n)
	}
}

func TestEvaluatorAnalyzeDomainsParity(t *testing.T) {
	fleet := heterogeneousFleet(6)
	domains := DomainSet{{Name: "z", ShockProb: 1e-3, CrashMultiplier: 50, ByzMultiplier: 1}}
	for i := range fleet {
		fleet[i].Domain = "z"
	}
	e := NewEvaluator()
	got, err := e.AnalyzeDomains(fleet, NewRaft(6), domains)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeDomains(fleet, NewRaft(6), domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "domain query through evaluator", got, want, 0)
	// Domain-free: identical to Analyze.
	plain := heterogeneousFleet(6)
	got, err = e.AnalyzeDomains(plain, NewRaft(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	want = MustAnalyze(plain, NewRaft(6))
	resultsClose(t, "domain-free query through evaluator", got, want, 0)
}

// TestSweepRaftQuorumsSingleDPBuild pins the acceptance criterion: the
// N=9 quorum sweep performs exactly one joint-DP build.
func TestSweepRaftQuorumsSingleDPBuild(t *testing.T) {
	fleet := heterogeneousFleet(9)
	before := dist.JointBuilds()
	if _, err := SweepRaftQuorums(fleet, false); err != nil {
		t.Fatal(err)
	}
	if builds := dist.JointBuilds() - before; builds != 1 {
		t.Errorf("SweepRaftQuorums(N=9) performed %d joint-DP builds, want exactly 1", builds)
	}
	before = dist.JointBuilds()
	if _, err := SweepPBFTQuorums(fleet); err != nil {
		t.Fatal(err)
	}
	if builds := dist.JointBuilds() - before; builds != 1 {
		t.Errorf("SweepPBFTQuorums(N=9) performed %d joint-DP builds, want exactly 1", builds)
	}
}

// TestSweepRaftQuorumsMatchesPerPair cross-pins the one-pass sweep against
// a from-scratch Analyze per (QPer, QVC) pair at 1e-12.
func TestSweepRaftQuorumsMatchesPerPair(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		fleet := heterogeneousFleet(n)
		sweep, err := SweepRaftQuorums(fleet, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep) != n*n {
			t.Fatalf("N=%d sweep has %d points, want %d", n, len(sweep), n*n)
		}
		for _, s := range sweep {
			want, err := Analyze(fleet, s.Model)
			if err != nil {
				t.Fatal(err)
			}
			resultsClose(t, fmt.Sprintf("raft N=%d %+v", n, s.Model), s.Res, want, 1e-12)
		}
	}
}

// TestSweepPBFTQuorumsMatchesPerPair cross-pins the one-pass PBFT sweep
// the same way.
func TestSweepPBFTQuorumsMatchesPerPair(t *testing.T) {
	for _, n := range []int{1, 4, 7, 9} {
		fleet := heterogeneousFleet(n)
		sweep, err := SweepPBFTQuorums(fleet)
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep) != n*(n+1)/2 {
			t.Fatalf("N=%d sweep has %d points, want %d", n, len(sweep), n*(n+1)/2)
		}
		for _, s := range sweep {
			want, err := Analyze(fleet, s.Model)
			if err != nil {
				t.Fatal(err)
			}
			resultsClose(t, fmt.Sprintf("pbft N=%d %+v", n, s.Model), s.Res, want, 1e-12)
		}
	}
}

// TestEvaluatorPoolConcurrentSweeps races many goroutines over one shared
// pool, mixing region-pass analyses (row-shaped and general tables) with
// Raft and PBFT quorum sweeps, and checks every answer against
// serially-computed goldens. Run under -race (CI does) this pins the
// pool's workspace isolation.
func TestEvaluatorPoolConcurrentSweeps(t *testing.T) {
	pool := NewEvaluatorPool()
	fleet := heterogeneousFleet(9)
	wantAnalyze := MustAnalyze(fleet, NewRaft(9))
	general := PBFT{NNodes: 9, QEq: 6, QPer: 6, QVC: 6, QVCT: 2} // the general region table
	wantGeneral := MustAnalyze(fleet, general)
	wantSweep, err := SweepRaftQuorums(fleet, true)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				switch (w + iter) % 3 {
				case 0:
					got, err := pool.Analyze(fleet, NewRaft(9))
					if err != nil {
						errs <- err
						return
					}
					if got != wantAnalyze {
						errs <- fmt.Errorf("pooled analyze %+v != %+v", got, wantAnalyze)
						return
					}
				case 1:
					e := pool.Get()
					got, err := e.SweepRaftQuorums(fleet, true)
					pool.Put(e)
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if got[i] != wantSweep[i] {
							errs <- fmt.Errorf("pooled sweep point %d: %+v != %+v", i, got[i], wantSweep[i])
							return
						}
					}
				case 2:
					e := pool.Get()
					got, err := e.Analyze(fleet, general)
					if err == nil {
						_, err = e.SweepPBFTQuorums(fleet)
					}
					pool.Put(e)
					if err != nil {
						errs <- err
						return
					}
					if got != wantGeneral {
						errs <- fmt.Errorf("pooled general-region analyze %+v != %+v", got, wantGeneral)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEvaluatorAnalyzeDomainsRejectsUnresolvedMembership pins the
// evaluator to the package-level contract: a fleet referencing a domain
// missing from the set errors out rather than being silently analyzed as
// independent.
func TestEvaluatorAnalyzeDomainsRejectsUnresolvedMembership(t *testing.T) {
	fleet := heterogeneousFleet(3)
	fleet[0].Domain = "zone-a"
	e := NewEvaluator()
	if _, err := e.AnalyzeDomains(fleet, NewRaft(3), nil); err == nil {
		t.Error("evaluator accepted a node referencing an undefined domain")
	}
	if _, err := NewEvaluatorPool().AnalyzeDomains(fleet, NewRaft(3), nil); err == nil {
		t.Error("pool accepted a node referencing an undefined domain")
	}
}
