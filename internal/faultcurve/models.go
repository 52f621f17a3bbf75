package faultcurve

import (
	"fmt"
	"math"
	"sort"
)

// Constant is a memoryless fault curve with fixed hazard Rate (per hour).
// It is the "useful life" plateau of the bathtub curve and the model behind
// every AFR figure.
type Constant struct {
	Rate float64
}

// FromAFR builds a Constant curve with the given annual failure rate.
func FromAFR(afr float64) Constant { return Constant{Rate: AFRToRate(afr)} }

// Hazard implements Curve.
func (c Constant) Hazard(t float64) float64 { return c.Rate }

// CumHazard implements Curve.
func (c Constant) CumHazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	return c.Rate * t
}

// Weibull is the standard hardware-reliability hazard
// h(t) = (Shape/Scale) * (t/Scale)^(Shape-1). Shape < 1 models infant
// mortality (decreasing hazard), Shape > 1 models wear-out (increasing),
// Shape = 1 degenerates to Constant{1/Scale}.
type Weibull struct {
	Shape float64 // k > 0
	Scale float64 // lambda > 0, hours
}

// Hazard implements Curve.
func (w Weibull) Hazard(t float64) float64 {
	if t < 0 {
		t = 0
	}
	if w.Shape == 1 {
		return 1 / w.Scale
	}
	if t == 0 {
		if w.Shape < 1 {
			return math.Inf(1)
		}
		return 0
	}
	return w.Shape / w.Scale * math.Pow(t/w.Scale, w.Shape-1)
}

// CumHazard implements Curve.
func (w Weibull) CumHazard(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return math.Pow(t/w.Scale, w.Shape)
}

// Bathtub is the classic disk-drive curve (§2(2)): infant mortality plus a
// constant useful-life floor plus wear-out, modelled as the sum of a
// decreasing-Weibull, a constant, and an increasing-Weibull hazard.
type Bathtub struct {
	Infancy Weibull  // Shape < 1
	Floor   Constant // useful-life plateau
	WearOut Weibull  // Shape > 1
}

// TypicalDiskBathtub returns a bathtub curve loosely shaped after published
// fleet studies: noticeable first-year infant mortality, ~1-2% AFR floor
// during useful life, and wear-out climbing after ~4 years.
func TypicalDiskBathtub() Bathtub {
	return Bathtub{
		Infancy: Weibull{Shape: 0.45, Scale: 1.5e6},
		Floor:   FromAFR(0.012),
		WearOut: Weibull{Shape: 5, Scale: 9 * HoursPerYear},
	}
}

// Hazard implements Curve.
func (b Bathtub) Hazard(t float64) float64 {
	return b.Infancy.Hazard(t) + b.Floor.Hazard(t) + b.WearOut.Hazard(t)
}

// CumHazard implements Curve.
func (b Bathtub) CumHazard(t float64) float64 {
	return b.Infancy.CumHazard(t) + b.Floor.CumHazard(t) + b.WearOut.CumHazard(t)
}

// Segment is one piece of a Piecewise hazard: constant Rate until End hours.
type Segment struct {
	End  float64 // exclusive upper bound of the segment, hours
	Rate float64 // hazard during the segment, per hour
}

// Piecewise is a step-function hazard. It captures operational reality the
// smooth models miss: rollout windows with elevated risk (§2(2): faults
// cluster around software updates — the CrowdStrike pattern), maintenance
// freezes with lowered risk, and empirical curves estimated from telemetry.
// Segments must be sorted by End; times beyond the last segment use Tail.
type Piecewise struct {
	Segments []Segment
	Tail     float64 // hazard after the last segment, per hour
}

// NewPiecewise validates and constructs a piecewise curve.
func NewPiecewise(segments []Segment, tail float64) (Piecewise, error) {
	prev := 0.0
	for i, s := range segments {
		if s.End <= prev {
			return Piecewise{}, fmt.Errorf("faultcurve: segment %d end %v not increasing (prev %v)", i, s.End, prev)
		}
		if s.Rate < 0 {
			return Piecewise{}, fmt.Errorf("faultcurve: segment %d has negative rate %v", i, s.Rate)
		}
		prev = s.End
	}
	if tail < 0 {
		return Piecewise{}, fmt.Errorf("faultcurve: negative tail rate %v", tail)
	}
	return Piecewise{Segments: segments, Tail: tail}, nil
}

// Hazard implements Curve.
func (p Piecewise) Hazard(t float64) float64 {
	if t < 0 {
		t = 0
	}
	i := sort.Search(len(p.Segments), func(i int) bool { return t < p.Segments[i].End })
	if i < len(p.Segments) {
		return p.Segments[i].Rate
	}
	return p.Tail
}

// CumHazard implements Curve.
func (p Piecewise) CumHazard(t float64) float64 {
	if t <= 0 {
		return 0
	}
	var h, prev float64
	for _, s := range p.Segments {
		if t <= s.End {
			return h + s.Rate*(t-prev)
		}
		h += s.Rate * (s.End - prev)
		prev = s.End
	}
	return h + p.Tail*(t-prev)
}

// Scaled multiplies another curve's hazard by Factor. It models fleet
// heterogeneity knobs: a drive model with 2x the baseline failure intensity,
// or a rack position that runs hot (§2(1)).
type Scaled struct {
	Base   Curve
	Factor float64
}

// Hazard implements Curve.
func (s Scaled) Hazard(t float64) float64 { return s.Factor * s.Base.Hazard(t) }

// CumHazard implements Curve.
func (s Scaled) CumHazard(t float64) float64 { return s.Factor * s.Base.CumHazard(t) }

// Shifted ages another curve by Offset hours: a server bought used, or a
// fleet commissioned mid-life. Hazard(t) = Base.Hazard(t + Offset).
type Shifted struct {
	Base   Curve
	Offset float64
}

// Hazard implements Curve.
func (s Shifted) Hazard(t float64) float64 { return s.Base.Hazard(t + s.Offset) }

// CumHazard implements Curve.
func (s Shifted) CumHazard(t float64) float64 {
	return s.Base.CumHazard(t+s.Offset) - s.Base.CumHazard(s.Offset)
}
