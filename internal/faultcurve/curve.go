package faultcurve

import "math"

// HoursPerYear is the mean Gregorian year in hours, used for AFR conversions.
const HoursPerYear = 8766.0

// Curve is a fault curve: a time-dependent failure intensity for one server.
// Time is measured in hours since the server entered service.
type Curve interface {
	// Hazard returns the instantaneous failure rate (per hour) at age t.
	Hazard(t float64) float64
	// CumHazard returns the integral of Hazard over [0, t].
	CumHazard(t float64) float64
}

// FailProb returns the probability that a server following curve c fails
// during the window [t0, t0+d], conditioned on being alive at t0:
// 1 - exp(-(H(t0+d) - H(t0))).
func FailProb(c Curve, t0, d float64) float64 {
	if d <= 0 {
		return 0
	}
	h := c.CumHazard(t0+d) - c.CumHazard(t0)
	if h < 0 {
		h = 0
	}
	return -math.Expm1(-h)
}

// AFRToRate converts an annual failure rate (probability of failing within
// one year, e.g. Backblaze-style AFR) to a constant per-hour hazard.
func AFRToRate(afr float64) float64 {
	if afr <= 0 {
		return 0
	}
	if afr >= 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-afr) / HoursPerYear
}

// RateToAFR converts a constant per-hour hazard to an annual failure rate.
func RateToAFR(rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return -math.Expm1(-rate * HoursPerYear)
}
