package core

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/quorum"
)

// This file implements the durability analysis behind experiment E3
// ("Raft and PBFT underutilize reliable nodes", §3.2): once an operation is
// persisted on a quorum, the data survives as long as at least one member
// of that quorum survives. Which quorum the leader happened to use therefore
// matters enormously in a heterogeneous fleet — and protocols oblivious to
// fault curves cannot steer it.

// QuorumDurability returns the probability that data persisted on the given
// node set survives the mission window (at least one member stays alive).
func QuorumDurability(s quorum.Set, fleet Fleet) float64 {
	return dist.Complement(quorum.ProbSetAllFail(s, fleet.FailProbs()))
}

// WorstQuorumDurability returns the durability when the persistence quorum
// of size k lands on the k most failure-prone nodes — what can happen when
// the protocol is oblivious to fault curves ("it may persist data only on
// the unreliable nodes").
func WorstQuorumDurability(k int, fleet Fleet) (float64, error) {
	set, err := extremeQuorum(k, fleet, false)
	if err != nil {
		return 0, err
	}
	return QuorumDurability(set, fleet), nil
}

// BestQuorumDurability returns the durability when the persistence quorum
// of size k is steered to the k most reliable nodes — the fault-curve-aware
// placement the paper advocates.
func BestQuorumDurability(k int, fleet Fleet) (float64, error) {
	set, err := extremeQuorum(k, fleet, true)
	if err != nil {
		return 0, err
	}
	return QuorumDurability(set, fleet), nil
}

// ReliabilityAwareDurability returns the durability when quorums of size k
// are required to include at least minReliable members of the reliable set,
// with the remaining members adversarially unreliable — the E3 policy
// "require quorums to include at least one reliable node".
func ReliabilityAwareDurability(k int, fleet Fleet, reliable quorum.Set, minReliable int) (float64, error) {
	if reliable.N() != len(fleet) {
		return 0, fmt.Errorf("core: reliable set universe %d != fleet %d", reliable.N(), len(fleet))
	}
	if minReliable > reliable.Count() {
		return 0, fmt.Errorf("core: need %d reliable members but only %d reliable nodes", minReliable, reliable.Count())
	}
	if k < minReliable {
		return 0, fmt.Errorf("core: quorum size %d < minReliable %d", k, minReliable)
	}
	probs := fleet.FailProbs()
	// Adversarial placement respecting the constraint: the minReliable most
	// failure-prone reliable nodes plus the k-minReliable most failure-prone
	// unreliable nodes.
	rel := reliable.Members()
	sortByFailDesc(rel, probs)
	unrel := reliable.Complement().Members()
	sortByFailDesc(unrel, probs)
	if k-minReliable > len(unrel) {
		return 0, fmt.Errorf("core: quorum size %d needs %d unreliable nodes, only %d exist", k, k-minReliable, len(unrel))
	}
	set := quorum.NewSet(len(fleet))
	for _, i := range rel[:minReliable] {
		set.Add(i)
	}
	for _, i := range unrel[:k-minReliable] {
		set.Add(i)
	}
	return QuorumDurability(set, fleet), nil
}

// AverageRandomQuorumDurability returns the expected durability when the
// size-k persistence quorum is chosen uniformly at random from all
// C(N, k) subsets — the model for a protocol that spreads load with no
// awareness of fault curves. Exact via inclusion over subsets for small N,
// computed as the mean of P(all k chosen nodes fail) over the uniform
// choice, which factorises through the elementary symmetric polynomial of
// the failure probabilities.
func AverageRandomQuorumDurability(k int, fleet Fleet) (float64, error) {
	n := len(fleet)
	if k < 0 || k > n {
		return 0, fmt.Errorf("core: quorum size %d out of range [0,%d]", k, n)
	}
	probs := fleet.FailProbs()
	// e_k(probs): sum over all k-subsets of the product of their failure
	// probabilities, via the standard DP.
	e := make([]float64, k+1)
	e[0] = 1
	for _, p := range probs {
		for j := k; j >= 1; j-- {
			e[j] += e[j-1] * p
		}
	}
	mean := e[k] / dist.Choose(n, k)
	return dist.Complement(mean), nil
}

func extremeQuorum(k int, fleet Fleet, mostReliable bool) (quorum.Set, error) {
	n := len(fleet)
	if k < 0 || k > n {
		return quorum.Set{}, fmt.Errorf("core: quorum size %d out of range [0,%d]", k, n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	probs := fleet.FailProbs()
	sort.SliceStable(idx, func(a, b int) bool {
		if mostReliable {
			return probs[idx[a]] < probs[idx[b]]
		}
		return probs[idx[a]] > probs[idx[b]]
	})
	set := quorum.NewSet(n)
	for _, i := range idx[:k] {
		set.Add(i)
	}
	return set, nil
}

func sortByFailDesc(idx []int, probs []float64) {
	sort.SliceStable(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
}
