package core

import (
	"fmt"

	"repro/internal/dist"
)

// This file implements §4's first probability-native step: "we can choose
// quorum sizes dynamically such that they overlap with high probability" —
// concretely, sweep every quorum sizing that preserves the safety
// invariants and pick the one with the best liveness (or expose the whole
// frontier so an operator can trade the two, generalising experiment E4).
//
// The sweeps are one-pass: the joint (#crashed, #Byzantine) DP depends
// only on the fleet, never on the quorum sizes, so it is built exactly
// once per fleet (pinned by TestSweepRaftQuorumsSingleDPBuild) and every
// (QPer, QVC) / (q, qt) pair is answered from O(N^2) cached tail sums.
// Each sizing's safe and live sets are count regions {b <= β, c + b <= κ}
// (CountModel.Regions), and a region's mass is one of
//
//   - diagCum[κ]            = P[C + B <= κ] when β >= κ (the Byzantine
//     bound is implied), Raft and textbook-PBFT liveness;
//   - Σ_{b<=β} colCum[b][κ-b] = Σ P[B = b, C <= κ - b] otherwise.
//
// That turns an O(N^2 pairs × N^3 DP) sweep into one O(N^3) build plus
// O(N) per pair — asymptotically the cost of a single analysis.

// quorumTails is the cached prefix-sum view of one joint DP. Buffers are
// reused across builds, so a warm evaluator sweeps with no table
// allocations.
type quorumTails struct {
	n       int
	colCum  []float64       // colCum[b*(n+1)+c] = P[B == b, C <= c]
	diagCum []float64       // diagCum[t] = P[C+B <= t]
	kah     []dist.KahanSum // per-diagonal scratch
}

func (t *quorumTails) build(j *dist.JointCrashByz) {
	n := j.N()
	w := n + 1
	t.n = n
	t.colCum = grow(t.colCum, w*w)
	t.diagCum = grow(t.diagCum, w)
	t.kah = grow(t.kah, w)
	for b := 0; b <= n; b++ {
		var s dist.KahanSum
		for c := 0; c <= n; c++ {
			s.Add(j.PMF(c, b))
			t.colCum[b*w+c] = dist.Clamp01(s.Sum())
		}
	}
	for i := range t.kah {
		t.kah[i].Reset()
	}
	for c := 0; c <= n; c++ {
		for b := 0; b+c <= n; b++ {
			t.kah[c+b].Add(j.PMF(c, b))
		}
	}
	var sd dist.KahanSum
	for k := 0; k <= n; k++ {
		sd.Add(t.kah[k].Sum())
		t.diagCum[k] = dist.Clamp01(sd.Sum())
	}
}

// mass returns P[(C, B) ∈ r] from the cached tails.
func (t *quorumTails) mass(r dist.Region) float64 {
	byz, faulty := min(r.Byz, t.n), min(r.Faulty, t.n)
	if byz < 0 || faulty < 0 {
		return 0
	}
	if byz >= faulty {
		return t.diagCum[faulty]
	}
	var s dist.KahanSum
	for b := 0; b <= byz; b++ {
		s.Add(t.colCum[b*(t.n+1)+faulty-b])
	}
	return dist.Clamp01(s.Sum())
}

// result answers one sizing from the cached tails.
func (t *quorumTails) result(m CountModel) Result {
	safe, live := m.Regions()
	return Result{Safe: t.mass(safe), Live: t.mass(live), SafeAndLive: t.mass(safe.Intersect(live))}
}

// RaftSizing is one point of the Raft quorum-sizing sweep.
type RaftSizing struct {
	Model Raft
	Res   Result
}

// SweepRaftQuorums evaluates every (QPer, QVC) pair for the fleet with a
// single joint-DP build. If safeOnly is set, only sizings satisfying
// Theorem 3.2's safety conditions are returned (the ones a CFT deployment
// may actually use); otherwise the full grid is returned for analysis.
func SweepRaftQuorums(fleet Fleet, safeOnly bool) ([]RaftSizing, error) {
	return NewEvaluator().SweepRaftQuorums(fleet, safeOnly)
}

// SweepRaftQuorums is the evaluator form of the package-level sweep: the
// joint DP and its tail sums live in the evaluator's reusable workspaces.
func (e *Evaluator) SweepRaftQuorums(fleet Fleet, safeOnly bool) ([]RaftSizing, error) {
	n := len(fleet)
	if n == 0 {
		return nil, fmt.Errorf("core: empty fleet")
	}
	if err := e.loadFleet(fleet); err != nil {
		return nil, err
	}
	e.joint.Reset(e.tri)
	e.tails.build(&e.joint)
	out := make([]RaftSizing, 0, n*n)
	for qper := 1; qper <= n; qper++ {
		for qvc := 1; qvc <= n; qvc++ {
			m := Raft{NNodes: n, QPer: qper, QVC: qvc}
			if safeOnly && !m.QuorumsSafe() {
				continue
			}
			out = append(out, RaftSizing{Model: m, Res: e.tails.result(m)})
		}
	}
	return out, nil
}

// BestRaftSizing returns the safe sizing with the highest safe-and-live
// probability. With a uniform fleet this recovers majority quorums; with a
// heterogeneous fleet it can justify asymmetric sizings (small election
// quorum, large persistence quorum or vice versa).
func BestRaftSizing(fleet Fleet) (RaftSizing, error) {
	sizings, err := SweepRaftQuorums(fleet, true)
	if err != nil {
		return RaftSizing{}, err
	}
	if len(sizings) == 0 {
		return RaftSizing{}, fmt.Errorf("core: no safe sizing exists for N=%d", len(fleet))
	}
	best := sizings[0]
	for _, s := range sizings[1:] {
		if s.Res.SafeAndLive > best.Res.SafeAndLive {
			best = s
		}
	}
	return best, nil
}

// PBFTSizing is one point of the PBFT quorum-sizing sweep.
type PBFTSizing struct {
	Model PBFT
	Res   Result
}

// SweepPBFTQuorums evaluates symmetric PBFT sizings (QEq = QPer = QVC = q)
// against all trigger sizes for the fleet with a single joint-DP build,
// returning every point. The E4 analysis is the N∈{4,5,7} slice of this
// sweep.
func SweepPBFTQuorums(fleet Fleet) ([]PBFTSizing, error) {
	return NewEvaluator().SweepPBFTQuorums(fleet)
}

// SweepPBFTQuorums is the evaluator form of the package-level sweep.
func (e *Evaluator) SweepPBFTQuorums(fleet Fleet) ([]PBFTSizing, error) {
	n := len(fleet)
	if n == 0 {
		return nil, fmt.Errorf("core: empty fleet")
	}
	if err := e.loadFleet(fleet); err != nil {
		return nil, err
	}
	e.joint.Reset(e.tri)
	e.tails.build(&e.joint)
	out := make([]PBFTSizing, 0, n*(n+1)/2)
	for q := 1; q <= n; q++ {
		for qt := 1; qt <= q; qt++ {
			m := PBFT{NNodes: n, QEq: q, QPer: q, QVC: q, QVCT: qt}
			out = append(out, PBFTSizing{Model: m, Res: e.tails.result(m)})
		}
	}
	return out, nil
}

// PBFTFrontier filters a sweep to its Pareto frontier in (safety,
// liveness): points where no other sizing is at least as safe AND at least
// as live (with one strictly better).
func PBFTFrontier(sweep []PBFTSizing) []PBFTSizing {
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

// BestPBFTSizingForSafety returns the sizing with the highest liveness
// among those reaching the target safety nines — "as live as possible
// while safe enough", the deployment question §4 wants answerable.
func BestPBFTSizingForSafety(fleet Fleet, safetyNines float64) (PBFTSizing, error) {
	sweep, err := SweepPBFTQuorums(fleet)
	if err != nil {
		return PBFTSizing{}, err
	}
	target := dist.FromNines(safetyNines)
	var best *PBFTSizing
	for i := range sweep {
		s := sweep[i]
		if s.Res.Safe < target {
			continue
		}
		if best == nil || s.Res.Live > best.Res.Live {
			best = &sweep[i]
		}
	}
	if best == nil {
		return PBFTSizing{}, fmt.Errorf("core: no sizing reaches %.2f nines of safety", safetyNines)
	}
	return *best, nil
}
