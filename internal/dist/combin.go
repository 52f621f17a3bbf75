package dist

import "math"

// LogChoose returns ln C(n, k), computed with log-gamma so that it is
// finite and accurate for n far beyond the n=170 overflow point of the
// factorial. LogChoose(n, k) is -Inf for k < 0 or k > n (the binomial
// coefficient is 0 there).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// Choose returns C(n, k) as a float64. Small cases are computed by the
// exact multiplicative recurrence (integer-exact up to the 2^53 float
// mantissa); large cases fall back to exp(LogChoose).
func Choose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	if k == 0 {
		return 1
	}
	// The multiplicative recurrence in uint64 is exact: after i steps the
	// value is C(n-k+i, i), and each intermediate product C(n-k+i, i)·i
	// stays below 2^64 for n <= 61. The result is integer-exact in
	// float64 whenever C(n, k) < 2^53 (all n <= 56), and correctly
	// rounded through n = 61.
	if n <= 61 {
		res := uint64(1)
		for i := 1; i <= k; i++ {
			res = res * uint64(n-k+i) / uint64(i)
		}
		return float64(res)
	}
	return math.Exp(LogChoose(n, k))
}

// logPMF returns ln P[Binomial(n, p) = k] without ever forming the
// catastrophically small/large factors separately.
func logBinomPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case p >= 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomPMF returns P[Binomial(n, p) = k], exact to full float64 precision
// even deep in the tails (it exponentiates a single log-space term).
func BinomPMF(n int, p float64, k int) float64 {
	return Clamp01(math.Exp(logBinomPMF(n, p, k)))
}

// BinomTailGE returns P[Binomial(n, p) >= k]. The requested tail is always
// summed directly (each term a single log-space exponentiation, Kahan
// accumulated), never as 1 - othertail: complementing a value within
// 1e-16 of 1 would destroy the relative precision of a 10-nines tail.
func BinomTailGE(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	var s KahanSum
	for i := k; i <= n; i++ {
		s.Add(math.Exp(logBinomPMF(n, p, i)))
	}
	return Clamp01(s.Sum())
}
