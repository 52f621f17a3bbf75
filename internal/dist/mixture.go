package dist

import "fmt"

// This file provides the two compositional operations the correlated
// failure-domain engine (internal/core.AnalyzeDomains) builds on:
//
//   - MixJointCrashByz: a convex mixture of two joint tables over the same
//     nodes — "shock fired" vs "shock did not fire" for one domain;
//   - ConvolveJointCrashByz: the joint table of two *independent* node
//     groups — counts from different failure domains add.
//
// Both preserve the JointCrashByz invariants (triangular support, total
// mass 1 up to rounding) so the result composes with SumWhere unchanged.
// Both have Into forms writing a reusable destination workspace, the shape
// the evaluator's block cache recombines cached domain blocks through with
// zero steady-state allocations.

// MixJointCrashByz returns the convex mixture wa·a + wb·b of two joint
// distributions over the same number of nodes: the exact distribution of a
// fleet whose per-node behaviour is drawn from a with probability wa and
// from b with probability wb. Weights are expected to sum to 1; they are
// applied as given so callers can fold normalisation in.
func MixJointCrashByz(a, b *JointCrashByz, wa, wb float64) (*JointCrashByz, error) {
	out := &JointCrashByz{}
	if err := MixJointCrashByzInto(out, a, b, wa, wb); err != nil {
		return nil, err
	}
	return out, nil
}

// MixJointCrashByzInto writes the convex mixture into dst, reusing dst's
// buffer. dst may alias a or b (the mixture is element-wise); only cells
// inside either operand's live extent are visited.
func MixJointCrashByzInto(dst *JointCrashByz, a, b *JointCrashByz, wa, wb float64) error {
	if a.n != b.n {
		return fmt.Errorf("dist: cannot mix joint tables over %d and %d nodes", a.n, b.n)
	}
	w := a.n + 1
	if dst != a && dst != b {
		dst.band.reset(w)
	}
	dst.n = a.n
	for c := 0; c < w; c++ {
		h := max(a.hi[c], b.hi[c])
		ra, rb, out := a.p[c*w:c*w+h], b.p[c*w:c*w+h], dst.p[c*w:c*w+h]
		for i := range out {
			out[i] = wa*ra[i] + wb*rb[i]
		}
		dst.hi[c] = h
	}
	dst.rows = max(a.rows, b.rows)
	return nil
}

// ConvolveJointCrashByz returns the joint (#crashed, #Byzantine)
// distribution of the union of two independent node groups: the result
// over n = a.N()+b.N() nodes assigns P[c, b] = Σ P_a[ca, ba]·P_b[c-ca,
// b-ba]. Cost is O((a.N()·b.N())²) cell products; each output cell is
// accumulated with compensated summation so repeated convolution (one per
// failure domain) stays exact to ~1e-15.
func ConvolveJointCrashByz(a, b *JointCrashByz) *JointCrashByz {
	out := &JointCrashByz{}
	ConvolveJointCrashByzInto(out, a, b)
	return out
}

// ConvolveJointCrashByzInto convolves a and b into dst, reusing dst's
// buffer, on the calling goroutine. dst must not alias a or b. The
// accumulation is written in gather form — each output cell is one
// compensated sum over its (ca, ba) sources in ascending order — and
// matches the historical scatter-form accumulation bit for bit.
func ConvolveJointCrashByzInto(dst *JointCrashByz, a, b *JointCrashByz) {
	n := a.n + b.n
	dst.band.resetDense(n)
	dst.n = n
	convolveRows(dst.p, a.p, b.p, a.n, b.n)
}

// convolveRows computes the convolution of joint tables ap (over an nodes)
// and bp (over bn nodes) into dp, which the caller has reset
// (out-of-triangle cells are already zero).
func convolveRows(dp, ap, bp []float64, an, bn int) {
	n := an + bn
	w := n + 1
	wa, wb := an+1, bn+1
	for c := 0; c < w; c++ {
		out := dp[c*w : (c+1)*w]
		bMaxRow := n - c
		caLo := c - bn
		if caLo < 0 {
			caLo = 0
		}
		caHi := c
		if caHi > an {
			caHi = an
		}
		for bOut := 0; bOut <= bMaxRow; bOut++ {
			var s KahanSum
			for ca := caLo; ca <= caHi; ca++ {
				cb := c - ca
				rowA := ap[ca*wa:]
				rowB := bp[cb*wb:]
				baLo := bOut - (bn - cb)
				if baLo < 0 {
					baLo = 0
				}
				baHi := bOut
				if m := an - ca; baHi > m {
					baHi = m
				}
				for ba := baLo; ba <= baHi; ba++ {
					ma := rowA[ba]
					if ma == 0 {
						continue
					}
					if mb := rowB[bOut-ba]; mb != 0 {
						s.Add(ma * mb)
					}
				}
			}
			out[bOut] = s.Sum()
		}
	}
}
