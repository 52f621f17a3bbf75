package dist

// PoissonBinomial is the distribution of the number of successes among
// independent Bernoulli trials with heterogeneous probabilities — the
// "how many of my differently-flaky nodes failed" distribution that the
// paper's heterogeneous-fleet analyses revolve around. The PMF is
// materialised once at construction by the classic O(n^2) convolution DP;
// queries are then O(1) (PMF) or O(n) with compensated summation
// (CDF/TailGE). Reset rebuilds in place (zero steady-state allocations)
// and ExtendWith folds in one more trial in O(n); like every dist
// workspace, a PoissonBinomial is single-owner — not for concurrent use.
type PoissonBinomial struct {
	pmf []float64 // pmf[k] = P[X = k], k in [0, n]
}

// NewPoissonBinomial builds the distribution of the sum of independent
// Bernoulli(probs[i]) trials. Probabilities are clamped to [0, 1].
// The DP invariant: after folding in trial i, pmf[k] is the probability
// of exactly k successes among the first i trials.
func NewPoissonBinomial(probs []float64) *PoissonBinomial {
	d := &PoissonBinomial{}
	d.Reset(probs)
	return d
}

// Reset rebuilds the distribution for a new set of trials in place,
// reusing the PMF buffer whenever it is large enough: a warm
// PoissonBinomial resets with zero allocations. The zero value resets the
// same way (Reset(nil) is the empty 0-trial distribution).
func (d *PoissonBinomial) Reset(probs []float64) {
	need := len(probs) + 1
	if cap(d.pmf) < need {
		d.pmf = make([]float64, need)
	} else {
		d.pmf = d.pmf[:need]
	}
	for k := range d.pmf {
		d.pmf[k] = 0
	}
	d.pmf[0] = 1
	for i, p := range probs {
		p = Clamp01(p)
		q := 1 - p
		// Descending k lets the update run in place: pmf[k-1] still holds
		// the previous iteration's value when pmf[k] consumes it.
		for k := i + 1; k >= 1; k-- {
			d.pmf[k] = d.pmf[k]*q + d.pmf[k-1]*p
		}
		d.pmf[0] *= q
	}
}

// ExtendWith folds one more Bernoulli(p) trial into the distribution in
// O(n) — the prefix-extension primitive for grow-by-one searches like
// committee sizing. The fold performs the same floating-point operations
// as a fresh build over the extended trial list, so the extended PMF is
// bit-identical to NewPoissonBinomial of the longer slice.
func (d *PoissonBinomial) ExtendWith(p float64) {
	p = Clamp01(p)
	q := 1 - p
	n := len(d.pmf) // new top index after the append below
	d.pmf = append(d.pmf, 0)
	for k := n; k >= 1; k-- {
		d.pmf[k] = d.pmf[k]*q + d.pmf[k-1]*p
	}
	d.pmf[0] *= q
}

// N returns the number of trials.
func (d *PoissonBinomial) N() int { return len(d.pmf) - 1 }

// CDF returns P[X <= k]. The requested side is summed directly rather
// than complemented, preserving the relative precision of deep tails
// (see BinomTailGE).
func (d *PoissonBinomial) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= d.N() {
		return 1
	}
	var s KahanSum
	for i := 0; i <= k; i++ {
		s.Add(d.pmf[i])
	}
	return Clamp01(s.Sum())
}

// TailGE returns P[X >= k].
func (d *PoissonBinomial) TailGE(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > d.N() {
		return 0
	}
	var s KahanSum
	for i := k; i <= d.N(); i++ {
		s.Add(d.pmf[i])
	}
	return Clamp01(s.Sum())
}
