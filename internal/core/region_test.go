package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// regionFleet draws a heterogeneous crash/Byzantine fleet of n nodes;
// with edges set, it also carries a never-failing node, a node that is
// never correct (p_crash + p_byz = 1) and an always-Byzantine node.
func regionFleet(rng *rand.Rand, n int, edges bool) Fleet {
	fleet := make(Fleet, n)
	for i := range fleet {
		fleet[i].Profile = faultcurve.Profile{PCrash: 0.06 * rng.Float64(), PByz: 0.01 * rng.Float64()}
	}
	if edges && n >= 3 {
		fleet[0].Profile = faultcurve.Profile{}
		fleet[1].Profile = faultcurve.Profile{PCrash: 0.4, PByz: 0.6}
		fleet[2].Profile = faultcurve.Profile{PByz: 1}
	}
	return fleet
}

// regionModels returns, for a fleet of n nodes, models whose regions take
// every shape of the region pass: majority Raft (a row over b, a row over
// c + b, the b = 0 general column), unsafe Raft sizing (an empty region),
// textbook PBFT (rows only), a non-textbook PBFT sizing (the general
// table, several columns where n allows) and one whose liveness region is
// empty.
func regionModels(n int) []CountModel {
	ms := []CountModel{NewRaft(n), Raft{NNodes: n, QPer: 1, QVC: 1}, NewPBFTForN(n)}
	q := (2*n)/3 + 1
	ms = append(ms, PBFT{NNodes: n, QEq: q, QPer: q, QVC: q, QVCT: min(2, q)})
	if n >= 8 {
		ms = append(ms, PBFT{NNodes: n, QEq: n / 2, QPer: n / 2, QVC: n / 2, QVCT: n / 8})
	}
	if n >= 3 {
		ms = append(ms, PBFT{NNodes: n, QEq: n, QPer: n, QVC: 1, QVCT: 2})
	}
	return ms
}

// randomSizing draws a Raft or PBFT model over n nodes with every quorum
// uniform in [1, n]: sizings that are unsafe, never live, or whose
// Byzantine bound exceeds its faulty bound all come up.
func randomSizing(rng *rand.Rand, n int) CountModel {
	q := func() int { return 1 + rng.Intn(n) }
	if rng.Intn(2) == 0 {
		return Raft{NNodes: n, QPer: q(), QVC: q()}
	}
	return PBFT{NNodes: n, QEq: q(), QPer: q(), QVC: q(), QVCT: q()}
}

// refResultFromJointModel is resultFromJointModel as it was before the
// regions were summed as regions, kept as its oracle: each cell's
// membership decided once, folded into three compensated sums.
func refResultFromJointModel(j *dist.JointCrashByz, m CountModel) Result {
	safe, live := m.Regions()
	var sSafe, sLive, sBoth dist.KahanSum
	for c := 0; c <= j.N(); c++ {
		for b, mass := range j.Row(c) {
			if mass == 0 {
				continue
			}
			s := safe.Holds(c, b)
			l := live.Holds(c, b)
			if s {
				sSafe.Add(mass)
			}
			if l {
				sLive.Add(mass)
			}
			if s && l {
				sBoth.Add(mass)
			}
		}
	}
	return Result{
		Safe:        dist.Clamp01(sSafe.Sum()),
		Live:        dist.Clamp01(sLive.Sum()),
		SafeAndLive: dist.Clamp01(sBoth.Sum()),
	}
}

// TestResultFromJointModelMatchesRef pins the three region sums to the
// cell scan they replaced, bit for bit: random fleets (with never-failing,
// never-correct and always-Byzantine nodes mixed in), both protocols at
// the region-pass models and random sizings, on plain joint tables and on
// mixtures of two (the shape the domain engines sum).
func TestResultFromJointModelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var joint, elev, mixed dist.JointCrashByz
	for iter := 0; iter < 600; iter++ {
		n := 1 + rng.Intn(30)
		fleet := regionFleet(rng, n, iter%3 == 0)
		tri, hot := make([]dist.TriState, n), make([]dist.TriState, n)
		for i, node := range fleet {
			tri[i] = node.Profile.TriState()
			hot[i] = faultcurve.Profile{PCrash: 0.5 * rng.Float64(), PByz: 0.1 * rng.Float64()}.TriState()
		}
		joint.Reset(tri)
		elev.Reset(hot)
		if err := dist.MixJointCrashByzInto(&mixed, &joint, &elev, 0.9, 0.1); err != nil {
			t.Fatal(err)
		}
		models := append(regionModels(n), randomSizing(rng, n), randomSizing(rng, n))
		for _, m := range models {
			for _, j := range []*dist.JointCrashByz{&joint, &mixed} {
				if got, want := resultFromJointModel(j, m), refResultFromJointModel(j, m); got != want {
					t.Fatalf("iter %d %s: region sums %+v, cell scan %+v", iter, m.Name(), got, want)
				}
			}
		}
	}
}

func resultsWithin(t *testing.T, what string, got, want Result, tol float64) {
	t.Helper()
	if math.Abs(got.Safe-want.Safe) > tol || math.Abs(got.Live-want.Live) > tol ||
		math.Abs(got.SafeAndLive-want.SafeAndLive) > tol {
		t.Fatalf("%s: region pass %+v vs oracle %+v (tolerance %g)", what, got, want, tol)
	}
}

// TestAnalyzeMatchesJointOracle pins Evaluator.Analyze's region pass
// against the joint table summed by resultFromJointModel (2e-15) and, at
// small N, against 3^N enumeration (1e-14), on one reused evaluator.
func TestAnalyzeMatchesJointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	e := NewEvaluator()
	var joint dist.JointCrashByz
	for _, n := range []int{1, 2, 5, 25, 64, 256} {
		for _, edges := range []bool{false, true} {
			fleet := regionFleet(rng, n, edges)
			tri := make([]dist.TriState, n)
			for i, node := range fleet {
				tri[i] = node.Profile.TriState()
			}
			joint.Reset(tri)
			for _, m := range regionModels(n) {
				safe, live := m.Regions()
				what := fmt.Sprintf("%s edges=%v (safe %+v, live %+v)", m.Name(), edges, safe, live)
				got, err := e.Analyze(fleet, m)
				if err != nil {
					t.Fatal(err)
				}
				resultsWithin(t, what+" vs joint", got, resultFromJointModel(&joint, m), 2e-15)
				if n <= 5 {
					s, l := CountPredicates(m)
					enum, err := AnalyzeSet(fleet, s, l)
					if err != nil {
						t.Fatal(err)
					}
					resultsWithin(t, what+" vs enumeration", got, enum, 1e-14)
				}
			}
		}
	}
}

// TestAnalyzeCrashOnlyRaftExactlySafe pins the crash-only Raft safety
// answer at exactly 1: with no Byzantine mass the region b <= 0 holds every
// outcome (the joint table's b = 0 row summed to 1 - 1 ulp).
func TestAnalyzeCrashOnlyRaftExactlySafe(t *testing.T) {
	for _, n := range []int{3, 5, 256} {
		for _, p := range []float64{0.01, 0.08} {
			res, err := Analyze(UniformCrashFleet(n, p), NewRaft(n))
			if err != nil {
				t.Fatal(err)
			}
			if res.Safe != 1 {
				t.Errorf("crash-only Raft n=%d p=%v: Safe = %.17g, want exactly 1", n, p, res.Safe)
			}
		}
	}
}

// BenchmarkAnalyzeLadder prices Evaluator.Analyze's region pass beside the
// joint-table oracle it replaced (Reset + resultFromJointModel) for Raft
// and textbook PBFT at N = 64, 256, 1024, on heterogeneous fleets drawn
// from the bench's cold_large range (p_crash 0.005..0.05, p_byz
// 0.0001..0.002).
func BenchmarkAnalyzeLadder(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		fleet := make(Fleet, n)
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: 0.005 + 0.045*rng.Float64(), PByz: 0.0001 + 0.0019*rng.Float64()}
		}
		for _, tc := range []struct {
			protocol string
			m        CountModel
		}{{"raft", NewRaft(n)}, {"pbft", NewPBFTForN(n)}} {
			m, name := tc.m, fmt.Sprintf("%s/N=%d", tc.protocol, n)
			b.Run(name+"/region", func(b *testing.B) {
				e := NewEvaluator()
				for i := 0; i < b.N; i++ {
					if _, err := e.Analyze(fleet, m); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/joint", func(b *testing.B) {
				e := NewEvaluator()
				for i := 0; i < b.N; i++ {
					if err := e.loadFleet(fleet); err != nil {
						b.Fatal(err)
					}
					e.joint.Reset(e.tri)
					resultFromJointModel(&e.joint, m)
				}
			})
		}
	}
}
