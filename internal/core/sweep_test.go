package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSweepRaftQuorumsSafeOnly(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.05)
	safe, err := SweepRaftQuorums(fleet, true)
	if err != nil {
		t.Fatal(err)
	}
	all, err := SweepRaftQuorums(fleet, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 25 {
		t.Errorf("full grid has %d points, want 25", len(all))
	}
	if len(safe) >= len(all) || len(safe) == 0 {
		t.Errorf("safe subset size %d of %d", len(safe), len(all))
	}
	for _, s := range safe {
		if !s.Model.QuorumsSafe() {
			t.Errorf("unsafe sizing in safe sweep: %+v", s.Model)
		}
		// Theorem 3.2: safety needs N < QPer+QVC and N < 2*QVC.
		if !(5 < s.Model.QPer+s.Model.QVC && 5 < 2*s.Model.QVC) {
			t.Errorf("sizing %+v violates theorem", s.Model)
		}
	}
}

func TestSweepPBFTRecoversTable1Points(t *testing.T) {
	fleet := UniformByzFleet(4, 0.01)
	sweep, err := SweepPBFTQuorums(fleet)
	if err != nil {
		t.Fatal(err)
	}
	// Find the (q=3, qt=2) point: it must match Table 1's N=4 row.
	found := false
	for _, s := range sweep {
		if s.Model.QEq == 3 && s.Model.QVCT == 2 {
			found = true
			want := MustAnalyze(fleet, Table1Configs()[0])
			if math.Abs(s.Res.SafeAndLive-want.SafeAndLive) > 1e-15 {
				t.Errorf("sweep point %v != table row %v", s.Res.SafeAndLive, want.SafeAndLive)
			}
		}
	}
	if !found {
		t.Error("textbook point missing from sweep")
	}
}

func TestPBFTFrontierDominance(t *testing.T) {
	fleet := UniformByzFleet(7, 0.01)
	sweep, err := SweepPBFTQuorums(fleet)
	if err != nil {
		t.Fatal(err)
	}
	frontier := PBFTFrontier(sweep)
	if len(frontier) == 0 || len(frontier) >= len(sweep) {
		t.Fatalf("frontier size %d of %d", len(frontier), len(sweep))
	}
	// No frontier point dominates another.
	for i, a := range frontier {
		for j, b := range frontier {
			if i == j {
				continue
			}
			if b.Res.Safe >= a.Res.Safe && b.Res.Live >= a.Res.Live &&
				(b.Res.Safe > a.Res.Safe || b.Res.Live > a.Res.Live) {
				t.Errorf("frontier point %+v dominated by %+v", a.Model, b.Model)
			}
		}
	}
	// Every dominated sweep point is dominated by some frontier point
	// (weak check: frontier contains the max-safety and max-liveness points).
	var maxSafe, maxLive float64
	for _, s := range sweep {
		if s.Res.Safe > maxSafe {
			maxSafe = s.Res.Safe
		}
		if s.Res.Live > maxLive {
			maxLive = s.Res.Live
		}
	}
	foundSafe, foundLive := false, false
	for _, f := range frontier {
		if f.Res.Safe == maxSafe {
			foundSafe = true
		}
		if f.Res.Live == maxLive {
			foundLive = true
		}
	}
	if !foundSafe || !foundLive {
		t.Error("frontier missing an extreme point")
	}
}

// frontierOracle is the quadratic Pareto filter PBFTFrontier replaced,
// kept as its oracle: every sizing is compared with every other.
func frontierOracle(sweep []PBFTSizing) []PBFTSizing {
	var out []PBFTSizing
	for i, a := range sweep {
		dominated := false
		for j, b := range sweep {
			if i == j {
				continue
			}
			if b.Res.Safe >= a.Res.Safe && b.Res.Live >= a.Res.Live &&
				(b.Res.Safe > a.Res.Safe || b.Res.Live > a.Res.Live) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// TestPBFTFrontierMatchesOracle pins PBFTFrontier to the quadratic filter
// with ==, set, order and ties: on random heterogeneous sweeps, on
// synthetic sweeps whose (Safe, Live) take four values each, and on the
// tie-heavy uniform N = 200 sweep, whose safest sizings tie by the
// thousand.
func TestPBFTFrontierMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sweeps := map[string][]PBFTSizing{}
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(40)
		sweep, err := SweepPBFTQuorums(randomFleet(rng, n, []float64{0.01, 0.1, 0.5}[i%3]))
		if err != nil {
			t.Fatal(err)
		}
		sweeps[fmt.Sprintf("heterogeneous %d (N=%d)", i, n)] = sweep
		coarse := make([]PBFTSizing, len(sweep))
		for k := range coarse {
			coarse[k] = PBFTSizing{Model: sweep[k].Model, Res: Result{Safe: float64(rng.Intn(4)) / 4, Live: float64(rng.Intn(4)) / 4}}
		}
		sweeps[fmt.Sprintf("coarse %d (N=%d)", i, n)] = coarse
	}
	uniform, err := SweepPBFTQuorums(UniformByzFleet(200, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	sweeps["uniform N=200"] = uniform
	for name, sweep := range sweeps {
		if got, want := PBFTFrontier(sweep), frontierOracle(sweep); !slices.Equal(got, want) {
			t.Fatalf("%s: frontier of %d sizings, oracle %d", name, len(got), len(want))
		}
	}
	if got := len(PBFTFrontier(uniform)); got < 1000 {
		t.Fatalf("uniform N=200: %d frontier points; the sweep no longer exercises ties", got)
	}
	if PBFTFrontier(nil) != nil {
		t.Fatal("empty sweep has a frontier")
	}
}

func TestBestPBFTSizingForSafety(t *testing.T) {
	fleet := UniformByzFleet(5, 0.01)
	// Table 1's N=5 story: quorums of 4 give ~5 nines safety at 99.90% live.
	best, err := BestPBFTSizingForSafety(fleet, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if best.Res.Safe < FromNinesForTest(4.5) {
		t.Errorf("returned sizing misses target: %v", best.Res.Safe)
	}
	// Among >= 4.5-nines sizings, nothing livelier exists.
	sweep, _ := SweepPBFTQuorums(fleet)
	for _, s := range sweep {
		if s.Res.Safe >= FromNinesForTest(4.5) && s.Res.Live > best.Res.Live+1e-15 {
			t.Errorf("livelier sizing %+v (%v) exists", s.Model, s.Res.Live)
		}
	}
	// Impossible target.
	if _, err := BestPBFTSizingForSafety(fleet, 30); err == nil {
		t.Error("30 nines accepted")
	}
}

// FromNinesForTest avoids an import cycle on dist in assertions.
func FromNinesForTest(n float64) float64 { return 1 - math.Pow(10, -n) }

func TestSweepEmptyFleets(t *testing.T) {
	if _, err := SweepRaftQuorums(Fleet{}, true); err == nil {
		t.Error("empty raft sweep accepted")
	}
	if _, err := SweepPBFTQuorums(Fleet{}); err == nil {
		t.Error("empty pbft sweep accepted")
	}
}
