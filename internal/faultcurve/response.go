package faultcurve

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Response is a spend→probability response curve: how a fault probability
// falls as hardening budget is poured into a node (better hardware, an
// extra battery, a second uplink) or into a failure domain (generator
// tests, staged rollouts). It is the differentiable link between a
// budget-allocation decision vector and the exact engines' inputs — the
// optimizer's chain rule runs through DProb.
//
// Implementations must be non-increasing in spend, map every finite spend
// (including small negative finite-difference probes) into [0, 1], and
// have DProb equal to the exact derivative of Prob.
type Response interface {
	// Prob returns the fault probability at the given spend.
	Prob(spend float64) float64
	// DProb returns d Prob / d spend.
	DProb(spend float64) float64
	// Validate rejects malformed curves.
	Validate() error
}

// ExpResponse is the standard diminishing-returns response: spending s
// decays the reducible share of the base probability exponentially,
//
//	Prob(s) = Floor + (P0 - Floor) · exp(-s / Scale),
//
// so the first dollar buys the most reliability and no spend goes below
// Floor (the risk hardening cannot remove). Scale is the e-folding spend.
type ExpResponse struct {
	// P0 is the unhardened (spend = 0) fault probability.
	P0 float64
	// Floor is the irreducible fault probability, 0 <= Floor <= P0.
	Floor float64
	// Scale is the spend that reduces the reducible share by e; > 0.
	Scale float64
}

// Validate implements Response.
func (r ExpResponse) Validate() error {
	if math.IsNaN(r.P0) || r.P0 < 0 || r.P0 > 1 {
		return fmt.Errorf("faultcurve: response P0 %v out of [0, 1]", r.P0)
	}
	if math.IsNaN(r.Floor) || r.Floor < 0 || r.Floor > r.P0 {
		return fmt.Errorf("faultcurve: response floor %v out of [0, P0=%v]", r.Floor, r.P0)
	}
	if math.IsNaN(r.Scale) || math.IsInf(r.Scale, 0) || r.Scale <= 0 {
		return fmt.Errorf("faultcurve: response scale must be finite and > 0, got %v", r.Scale)
	}
	return nil
}

// Prob implements Response. Negative spends (finite-difference probes at
// the boundary) extrapolate smoothly and clamp to [0, 1].
func (r ExpResponse) Prob(spend float64) float64 {
	return dist.Clamp01(r.Floor + (r.P0-r.Floor)*math.Exp(-spend/r.Scale))
}

// DProb implements Response. The derivative is zero only strictly
// outside [0, 1] (the clamped region of negative-spend probes); at the
// boundary itself — e.g. a base probability of exactly 1 at spend 0 —
// the curve is smooth and the true (one-sided) derivative applies, so a
// certainly-failing node still attracts gradient.
func (r ExpResponse) DProb(spend float64) float64 {
	e := math.Exp(-spend / r.Scale)
	if p := r.Floor + (r.P0-r.Floor)*e; p < 0 || p > 1 {
		return 0 // clamped region: flat
	}
	return -(r.P0 - r.Floor) * e / r.Scale
}

// HardeningResponse builds the default ExpResponse for a base probability:
// spend decays the reducible share with e-folding scale, down to
// floorFrac·base. It is the shared curve constructor of the optimizer CLI,
// service, and examples.
func HardeningResponse(base, floorFrac, scale float64) ExpResponse {
	return ExpResponse{P0: base, Floor: floorFrac * base, Scale: scale}
}
