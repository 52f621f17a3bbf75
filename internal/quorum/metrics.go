package quorum

import (
	"fmt"

	"repro/internal/dist"
)

// This file implements the classical quorum-system quality measures the
// paper's related-work section traces to Naor-Wool — availability, failure
// probability, and load — generalised to heterogeneous per-node fault
// probabilities, which is precisely the refinement the paper calls for
// (the original measures assume every node fails with equal probability).

// Availability returns the probability that some quorum of the system is
// fully alive when node i fails independently with probs[i]. For Threshold
// systems it uses the exact Poisson-binomial closed form; for general
// systems it enumerates the 2^N failure configurations (N <= 22).
func Availability(sys System, probs []float64) (float64, error) {
	n := sys.N()
	if len(probs) != n {
		return 0, fmt.Errorf("quorum: %d probabilities for %d nodes", len(probs), n)
	}
	if t, ok := sys.(Threshold); ok {
		// Some quorum alive <=> at least K nodes alive <=> at most N-K failed.
		d := dist.NewPoissonBinomial(probs)
		return d.CDF(n - t.K), nil
	}
	if n > 22 {
		return 0, fmt.Errorf("quorum: exact availability needs N <= 22 for %T", sys)
	}
	var total dist.KahanSum
	for mask := uint64(0); mask < 1<<n; mask++ {
		alive := FromMask(n, mask)
		if !sys.IsQuorum(alive) {
			continue
		}
		// Probability that exactly this alive-set is alive is summed over
		// supersets implicitly; instead weight each configuration once:
		p := 1.0
		for i := 0; i < n; i++ {
			if alive.Has(i) {
				p *= 1 - probs[i]
			} else {
				p *= probs[i]
			}
		}
		total.Add(p)
	}
	return dist.Clamp01(total.Sum()), nil
}

// SystemLoad returns the load of the quorum system under the best
// *uniform-over-minimal-quorums* access strategy this package can
// construct: the probability of the busiest node being touched by a
// randomly chosen minimal quorum. Lower is better; Naor-Wool prove
// load >= max(1/c(S), c(S)/n) where c(S) is the smallest quorum size.
//
//   - Threshold: every node appears in a K-subset with probability K/N
//     (the optimal symmetric strategy), so load = K/N.
//   - Grid: the uniform strategy over row+column quorums loads each node
//     (r,c) with P[row=r] + P[col=c] - P[both] = 1/R + 1/C - 1/(RC).
//   - Otherwise: brute force over minimal quorums for N <= 20.
func SystemLoad(sys System) (float64, error) {
	switch s := sys.(type) {
	case Threshold:
		if s.Nodes == 0 {
			return 0, fmt.Errorf("quorum: empty system")
		}
		return float64(s.K) / float64(s.Nodes), nil
	case Grid:
		r, c := float64(s.Rows), float64(s.Cols)
		return 1/r + 1/c - 1/(r*c), nil
	default:
		return bruteLoad(sys)
	}
}

// bruteLoad enumerates minimal quorums and computes the per-node touch
// frequency of the uniform strategy over them.
func bruteLoad(sys System) (float64, error) {
	n := sys.N()
	if n > 20 {
		return 0, fmt.Errorf("quorum: brute-force load needs N <= 20")
	}
	counts := make([]float64, n)
	quorums := 0
	for mask := uint64(0); mask < 1<<n; mask++ {
		s := FromMask(n, mask)
		if !sys.IsQuorum(s) {
			continue
		}
		// Minimality: removing any member must break quorumhood.
		minimal := true
		for _, m := range s.Members() {
			s.Remove(m)
			isQ := sys.IsQuorum(s)
			s.Add(m)
			if isQ {
				minimal = false
				break
			}
		}
		if !minimal {
			continue
		}
		quorums++
		for _, m := range s.Members() {
			counts[m]++
		}
	}
	if quorums == 0 {
		return 0, fmt.Errorf("quorum: system has no quorums")
	}
	max := 0.0
	for _, c := range counts {
		if l := c / float64(quorums); l > max {
			max = l
		}
	}
	return max, nil
}

// CompareSystems evaluates availability and load for a set of systems over
// the same fleet — the quorum-system shoot-out behind the "linear quorums
// are overkill" discussion.
type SystemMetrics struct {
	Name         string
	MinQuorum    int
	Load         float64
	Availability float64
}

// Evaluate computes metrics for each system against per-node failure
// probabilities.
func Evaluate(systems []System, probs []float64) ([]SystemMetrics, error) {
	out := make([]SystemMetrics, 0, len(systems))
	for _, s := range systems {
		load, err := SystemLoad(s)
		if err != nil {
			return nil, err
		}
		avail, err := Availability(s, probs)
		if err != nil {
			return nil, err
		}
		out = append(out, SystemMetrics{
			Name:         s.String(),
			MinQuorum:    s.MinSize(),
			Load:         load,
			Availability: avail,
		})
	}
	return out, nil
}
