package campaign_test

// Experiments V1 and V2 of DESIGN.md and the table-driven theorem sweep:
// the analytical predicates of Theorems 3.1 and 3.2 checked against the
// executing protocol implementations.
//
// The experimental design mirrors §3's definition of a safe/live failure
// configuration: rather than sampling rare fault events end-to-end (which
// would need millions of runs to see a 1e-4 tail), each failure
// configuration is *imposed* on a simulated cluster and the run's observed
// safety (agreement) and liveness (progress) are compared with what the
// theorem predicts for that configuration. Every run goes through
// campaign.RunConfig — the campaign runner's trial with the configuration
// given instead of sampled — so the sweep and the campaigns share one
// simulated-cluster driver.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pbft"
	"repro/internal/sim"
)

// firstIDs returns 0..k-1: which k nodes fail is irrelevant for a
// homogeneous predicate, and the lowest ids are adversarial for PBFT
// liveness (they lead the earliest views).
func firstIDs(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// livenessByCount runs one representative configuration per fault count
// k = 0..max — the first k nodes crashed (raft) or Silent (pbft) — and
// returns whether the simulated cluster made progress beside the
// theorem's prediction. An agreement violation fails the test.
func livenessByCount(t *testing.T, protocol string, n, max, ops int, seed int64) (simLive, predLive []bool) {
	t.Helper()
	cell := campaign.CellSpec{Protocol: protocol, N: n, Ops: ops}
	for k := 0; k <= max; k++ {
		var byz, crashed []int
		pred := core.NewRaft(n).Live(k, 0)
		if protocol == "pbft" {
			byz, pred = firstIDs(k), core.NewPBFTForN(n).Live(0, k)
		} else {
			crashed = firstIDs(k)
		}
		safe, live, err := campaign.RunConfig(cell, byz, crashed, seed+int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if !safe {
			t.Fatalf("%s N=%d: agreement violated with %d faulty nodes", protocol, n, k)
		}
		simLive, predLive = append(simLive, live), append(predLive, pred)
	}
	return simLive, predLive
}

// TestV1RaftMatrixMatchesTheorem is experiment V1: the simulated Raft
// cluster is live under exactly the crash counts Theorem 3.2 predicts.
func TestV1RaftMatrixMatchesTheorem(t *testing.T) {
	for _, n := range []int{3, 5} {
		simLive, predLive := livenessByCount(t, "raft", n, n, 3, 1000+int64(n))
		for k := 0; k <= n; k++ {
			if simLive[k] != predLive[k] {
				t.Errorf("N=%d crashes=%d: sim live=%v, theorem says %v", n, k, simLive[k], predLive[k])
			}
		}
	}
}

// TestV1EmpiricalTable2Cell: when the matrix matches the predicate, the
// simulation-weighted reliability — the simulated per-count liveness
// weighted by the binomial configuration masses — equals the analytic
// Table 2 cell.
func TestV1EmpiricalTable2Cell(t *testing.T) {
	n := 3
	simLive, _ := livenessByCount(t, "raft", n, n, 3, 42)
	for _, p := range []float64{0.01, 0.08} {
		var emp dist.KahanSum
		for k, live := range simLive {
			if live {
				emp.Add(dist.BinomPMF(n, p, k))
			}
		}
		exact := core.MustAnalyze(core.UniformCrashFleet(n, p), core.NewRaft(n)).SafeAndLive
		if math.Abs(emp.Sum()-exact) > 1e-12 {
			t.Errorf("p=%v: empirical %v != analytic %v", p, emp.Sum(), exact)
		}
	}
}

// TestV2PBFTMatrixMatchesTheorem is experiment V2 for liveness: silent
// Byzantine nodes block progress exactly beyond the theorem's budget.
func TestV2PBFTMatrixMatchesTheorem(t *testing.T) {
	simLive, predLive := livenessByCount(t, "pbft", 4, 2, 2, 2000)
	for b := 0; b <= 2; b++ {
		if simLive[b] != predLive[b] {
			t.Errorf("N=4 byz=%d: sim live=%v, theorem says %v", b, simLive[b], predLive[b])
		}
	}
}

// TestV2EquivocationSafetyBoundary is experiment V2 for safety, the one
// check of Theorem 3.1's safety boundary against an attacking (not merely
// silent) node: with textbook quorums one equivocating leader must never
// split agreement; with an undersized non-equivocation quorum it must
// manage to within 20 seeds.
func TestV2EquivocationSafetyBoundary(t *testing.T) {
	behaviors := []pbft.Behavior{pbft.Equivocate, pbft.Honest, pbft.Honest, pbft.Honest}
	delay := sim.UniformDelay{Min: 1 * sim.Millisecond, Max: 8 * sim.Millisecond}
	violated := func(cfg pbft.Config, seed int64) bool {
		c, err := pbft.NewCluster(cfg, behaviors, seed, delay, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.Request()
		c.RunFor(5 * sim.Second)
		return c.Rec.CheckAgreement() != nil
	}
	undersizedViolated := false
	for s := int64(0); s < 20; s++ {
		// Textbook: N=4, QEq=3 — tolerates the equivocator.
		if violated(pbft.Config{N: 4}, s) {
			t.Errorf("seed %d: equivocator violated agreement under textbook quorums", s)
		}
		// Undersized: QEq=2 violates b < 2*QEq-N for any b >= 0.
		if violated(pbft.Config{N: 4, QEq: 2, QPer: 2, QVC: 3, QVCT: 2, ViewTimeout: 10 * sim.Second}, s) {
			undersizedViolated = true
		}
	}
	if !undersizedViolated {
		t.Error("equivocator never split undersized quorums in 20 seeds")
	}
}

// TestTheoremSweep is the table-driven tier-1 sweep: every cluster size
// N=3..7 for both protocols, every failure count from zero up past the
// theorem threshold, one imposed configuration each under a pinned seed.
// Assertion discipline: a predicted-live configuration must always be
// observed live, and crash/omission faults must never produce an
// agreement violation. A predicted stall is asserted only when it is
// structural — the surviving correct set is smaller than a required
// quorum — because Silent (omission-only) Byzantine behavior cannot
// realize the adversarial view-change stalls the predicate also covers.
// At 3f+1 sizes every stall is structural, so there the check is
// two-directional; at N=5,6 the b=f+1 rows are live in simulation and
// the one-directional rule applies.
func TestTheoremSweep(t *testing.T) {
	type row struct {
		protocol   string
		n, c, b    int
		seed       int64
		expectLive bool
		structural bool // the stall needs no adversarial behavior to realize
	}
	var rows []row
	// Raft: crash counts 0..N. Every Raft stall is structural (fewer than
	// a majority alive), so the check is two-directional throughout.
	for n := 3; n <= 7; n++ {
		model := core.NewRaft(n)
		for c := 0; c <= n; c++ {
			rows = append(rows, row{"raft", n, c, 0, int64(9000 + 100*n + c), model.Live(c, 0), true})
		}
	}
	// PBFT: silent-Byzantine counts 0..f+1 and crash/Byzantine mixes up to
	// one past the f-threshold. N=3 (f=0) is excluded: its textbook quorum
	// of one makes single-replica "agreement" vacuous in the simulator.
	structuralStall := func(n, c, b int) bool {
		m := core.NewPBFTForN(n)
		correct := n - c - b
		return correct < m.QEq || correct < m.QPer || correct < m.QVC
	}
	for n := 4; n <= 7; n++ {
		model := core.NewPBFTForN(n)
		f := (n - 1) / 3
		for b := 0; b <= f+1; b++ {
			rows = append(rows, row{"pbft", n, 0, b, int64(7000 + 100*n + b), model.Live(0, b), structuralStall(n, 0, b)})
		}
		for c := 1; c <= f+1; c++ {
			for b := 0; c+b <= f+1; b++ {
				rows = append(rows, row{"pbft", n, c, b, int64(8000 + 100*n + 10*c + b), model.Live(c, b), structuralStall(n, c, b)})
			}
		}
	}
	for _, r := range rows {
		r := r
		t.Run(fmt.Sprintf("%s/n%d/c%d/b%d", r.protocol, r.n, r.c, r.b), func(t *testing.T) {
			t.Parallel()
			crashed := make([]int, r.c)
			for i := range crashed {
				// Crash the highest ids so Byzantine nodes (lowest ids)
				// stay disjoint from the crash set.
				crashed[i] = r.n - 1 - i
			}
			cell := campaign.CellSpec{Protocol: r.protocol, N: r.n, Ops: 2}
			safe, live, err := campaign.RunConfig(cell, firstIDs(r.b), crashed, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !safe {
				t.Errorf("agreement violated (crash/omission faults cannot realize unsafety)")
			}
			switch {
			case r.expectLive && !live:
				t.Errorf("predicted live, observed stalled")
			case !r.expectLive && live && r.structural:
				t.Errorf("structurally stalled configuration observed live")
			}
		})
	}
}

func TestRaftRunCrashMajorityStillSafe(t *testing.T) {
	safe, live, err := campaign.RunConfig(campaign.CellSpec{Protocol: "raft", N: 5, Ops: 2}, nil, []int{0, 1, 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Error("agreement violated under majority crash")
	}
	if live {
		t.Error("progress claimed despite majority crash")
	}
}
