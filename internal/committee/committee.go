package committee

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/quorum"
)

// Best returns the k most reliable nodes of the fleet (lowest total fault
// probability, ties broken by index for determinism).
func Best(fleet core.Fleet, k int) (quorum.Set, error) {
	n := len(fleet)
	if k < 0 || k > n {
		return quorum.Set{}, fmt.Errorf("committee: k=%d out of range [0,%d]", k, n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	probs := fleet.FailProbs()
	sort.SliceStable(idx, func(a, b int) bool { return probs[idx[a]] < probs[idx[b]] })
	set := quorum.NewSet(n)
	for _, i := range idx[:k] {
		set.Add(i)
	}
	return set, nil
}

// FailureTail returns the probability that at least t members of the
// committee fail, using the exact Poisson-binomial over the members'
// probabilities. This is the quantity committee sizing must bound: a
// committee is useful only while fewer than its fault budget fail.
func FailureTail(committee quorum.Set, fleet core.Fleet, t int) float64 {
	probs := fleet.FailProbs()
	var sub []float64
	for _, i := range committee.Members() {
		sub = append(sub, probs[i])
	}
	return dist.NewPoissonBinomial(sub).TailGE(t)
}

// MinSizeForBudget returns the smallest committee drawn from the most
// reliable nodes such that P[#failures >= budget+1] <= eps, or an error if
// even the full fleet cannot achieve it. It realises §4's "sample
// committees ... to select only the reliable nodes".
//
// The search is incremental: candidate committees are nested prefixes of
// the reliability-sorted fleet, so one Poisson-binomial DP is prefix-
// extended a node at a time — O(k) per candidate size instead of an
// O(k^2) rebuild, O(N^2) total for the whole search.
func MinSizeForBudget(fleet core.Fleet, budget int, eps float64) (quorum.Set, error) {
	if budget < 0 {
		return quorum.Set{}, fmt.Errorf("committee: budget must be >= 0, got %d", budget)
	}
	n := len(fleet)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	probs := fleet.FailProbs()
	sort.SliceStable(idx, func(a, b int) bool { return probs[idx[a]] < probs[idx[b]] })
	var pb dist.PoissonBinomial
	pb.Reset(nil)
	for k := 0; k < budget && k < n; k++ {
		pb.ExtendWith(probs[idx[k]])
	}
	for k := budget + 1; k <= n; k++ {
		pb.ExtendWith(probs[idx[k-1]])
		if pb.TailGE(budget+1) <= eps {
			set := quorum.NewSet(n)
			for _, i := range idx[:k] {
				set.Add(i)
			}
			return set, nil
		}
	}
	return quorum.Set{}, fmt.Errorf("committee: no committee of <= %d nodes keeps P[>%d failures] <= %g",
		len(fleet), budget, eps)
}

// Leader returns the most reliable node — §4's "choose leaders among the
// most reliable nodes" in its simplest form.
func Leader(fleet core.Fleet) (int, error) {
	if len(fleet) == 0 {
		return 0, fmt.Errorf("committee: empty fleet")
	}
	best, probs := 0, fleet.FailProbs()
	for i, p := range probs {
		if p < probs[best] {
			best = i
		}
	}
	return best, nil
}

// Reputation tracks empirical node behaviour with exponential decay,
// blending prior fault curves with observed performance — the online
// counterpart of static fault curves.
type Reputation struct {
	scores []float64 // higher is better, in [0,1]
	decay  float64
}

// NewReputation starts every node at the complement of its prior failure
// probability. decay in (0,1] controls how fast observations displace the
// prior (1 = only the latest observation matters).
func NewReputation(fleet core.Fleet, decay float64) (*Reputation, error) {
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("committee: decay %v out of (0,1]", decay)
	}
	scores := make([]float64, len(fleet))
	for i, p := range fleet.FailProbs() {
		scores[i] = 1 - p
	}
	return &Reputation{scores: scores, decay: decay}, nil
}

// Observe folds one success/failure observation for node i.
func (r *Reputation) Observe(i int, ok bool) {
	v := 0.0
	if ok {
		v = 1.0
	}
	r.scores[i] = (1-r.decay)*r.scores[i] + r.decay*v
}

// Leader returns the highest-reputation node (lowest index on ties).
func (r *Reputation) Leader() int {
	best := 0
	for i, s := range r.scores {
		if s > r.scores[best] {
			best = i
		}
	}
	return best
}

// SampleVRF deterministically samples a k-subset of n nodes from a seed,
// mimicking verifiable-random-function committee sampling (every party with
// the seed derives the same committee; no party controls it). It uses
// SHA-256 as the public randomness beacon and a Fisher-Yates prefix.
func SampleVRF(seed []byte, n, k int) (quorum.Set, error) {
	if k < 0 || k > n {
		return quorum.Set{}, fmt.Errorf("committee: k=%d out of range [0,%d]", k, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	ctr := uint64(0)
	next := func(bound int) int {
		// Rejection-free enough for analysis purposes: 64 bits vs tiny bounds.
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], ctr)
		ctr++
		h := sha256.Sum256(append(append([]byte{}, seed...), buf[:]...))
		v := binary.BigEndian.Uint64(h[:8])
		return int(v % uint64(bound))
	}
	set := quorum.NewSet(n)
	for i := 0; i < k; i++ {
		j := i + next(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		set.Add(perm[i])
	}
	return set, nil
}
