package optimize

import "math"

// DefaultDiffStep is the default central-difference step scale: the
// cube root of machine epsilon, the textbook optimum balancing truncation
// (O(h^2)) against round-off (O(eps/h)) error for second-order schemes.
const DefaultDiffStep = 6.055454452393343e-06

// CentralDiffGrad writes the central-difference gradient of f at x into
// out: (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i) with the per-coordinate
// step h_i = h·max(1, |x_i|). h <= 0 selects DefaultDiffStep. It is the
// oracle TestGradientAgreement checks the analytic gradient against; the
// probe points leave the feasible set by at most h_i per coordinate, which
// the response curves and probabilities clamp.
func CentralDiffGrad(f func([]float64) float64, x []float64, h float64, out []float64) {
	if h <= 0 {
		h = DefaultDiffStep
	}
	probe := make([]float64, len(x))
	copy(probe, x)
	for i := range x {
		hi := h * math.Max(1, math.Abs(x[i]))
		// Use the exactly-representable step (xp - xm)/2, eliminating one
		// source of round-off.
		xp, xm := x[i]+hi, x[i]-hi
		probe[i] = xp
		fp := f(probe)
		probe[i] = xm
		fm := f(probe)
		probe[i] = x[i]
		out[i] = (fp - fm) / (xp - xm)
	}
}
