package markov

import (
	"fmt"
	"math"
)

// BirthDeath is a repairable N-node cluster model with homogeneous failure
// rate Lambda (per node-hour) and repair rate Mu (per repair-hour), with at
// most Repairers concurrent repairs.
type BirthDeath struct {
	N         int
	Lambda    float64
	Mu        float64
	Repairers int
}

// NewBirthDeath validates and constructs a model. repairers <= 0 means one
// repairer.
func NewBirthDeath(n int, lambda, mu float64, repairers int) (BirthDeath, error) {
	if n <= 0 {
		return BirthDeath{}, fmt.Errorf("markov: need n > 0, got %d", n)
	}
	if lambda <= 0 {
		return BirthDeath{}, fmt.Errorf("markov: need lambda > 0, got %v", lambda)
	}
	if mu < 0 {
		return BirthDeath{}, fmt.Errorf("markov: need mu >= 0, got %v", mu)
	}
	if repairers <= 0 {
		repairers = 1
	}
	return BirthDeath{N: n, Lambda: lambda, Mu: mu, Repairers: repairers}, nil
}

func (m BirthDeath) failRate(k int) float64 {
	return float64(m.N-k) * m.Lambda
}

func (m BirthDeath) repairRate(k int) float64 {
	r := k
	if r > m.Repairers {
		r = m.Repairers
	}
	return float64(r) * m.Mu
}

// MeanTimeToAbsorption returns the expected time, starting from zero
// failures, until the chain first reaches `absorb` simultaneous failures.
// With absorb = f+1 this is Zorfu-style "mean time to more than f failures";
// with absorb = N - Qper + 1 it is the consensus analogue of MTTDL for
// liveness loss, etc.
func (m BirthDeath) MeanTimeToAbsorption(absorb int) (float64, error) {
	if absorb < 1 || absorb > m.N {
		return 0, fmt.Errorf("markov: absorb state %d out of range [1,%d]", absorb, m.N)
	}
	// h[k] = expected time to reach `absorb` from k failures, for
	// k = 0..absorb-1; h[absorb] = 0.
	// Balance: (lam_k + mu_k) h[k] = 1 + lam_k h[k+1] + mu_k h[k-1].
	// Tridiagonal solve via forward elimination (Thomas algorithm).
	n := absorb             // unknowns h[0..absorb-1]
	a := make([]float64, n) // sub-diagonal (mu_k)
	b := make([]float64, n) // diagonal
	c := make([]float64, n) // super-diagonal (lam_k)
	d := make([]float64, n) // rhs
	for k := 0; k < n; k++ {
		lam := m.failRate(k)
		mu := m.repairRate(k)
		if k == 0 {
			mu = 0 // no repairs when nothing failed
		}
		a[k] = -mu
		b[k] = lam + mu
		c[k] = -lam
		d[k] = 1
	}
	// h[absorb] = 0 so the last equation's super-diagonal term vanishes.
	c[n-1] = 0
	// Thomas algorithm.
	for k := 1; k < n; k++ {
		w := a[k] / b[k-1]
		b[k] -= w * c[k-1]
		d[k] -= w * d[k-1]
	}
	h := make([]float64, n)
	h[n-1] = d[n-1] / b[n-1]
	for k := n - 2; k >= 0; k-- {
		h[k] = (d[k] - c[k]*h[k+1]) / b[k]
	}
	return h[0], nil
}

// NinesFromMTTDL converts a mean time to "something bad" and a mission
// window into the nines of surviving the window, assuming the bad event is
// (approximately) exponentially distributed at rate 1/MTTDL — the standard
// storage-community reading of MTTDL figures.
func NinesFromMTTDL(mttdl, window float64) float64 {
	if mttdl <= 0 {
		return 0
	}
	surv := math.Exp(-window / mttdl)
	if surv >= 1 {
		return math.Inf(1)
	}
	return -math.Log10(1 - surv)
}
