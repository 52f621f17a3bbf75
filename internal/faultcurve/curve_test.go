package faultcurve

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestAFRRoundTrip(t *testing.T) {
	for _, afr := range []float64{0.001, 0.01, 0.04, 0.08, 0.5} {
		rate := AFRToRate(afr)
		if got := RateToAFR(rate); !almostEq(got, afr, 1e-12) {
			t.Errorf("round trip AFR %v -> %v", afr, got)
		}
	}
	if AFRToRate(0) != 0 || AFRToRate(-1) != 0 {
		t.Error("non-positive AFR must map to rate 0")
	}
	if !math.IsInf(AFRToRate(1), 1) {
		t.Error("AFR=1 must map to infinite rate")
	}
	if RateToAFR(0) != 0 {
		t.Error("rate 0 must map to AFR 0")
	}
}

func TestConstantFailProbOneYearEqualsAFR(t *testing.T) {
	c := FromAFR(0.04)
	if got := FailProb(c, 0, HoursPerYear); !almostEq(got, 0.04, 1e-12) {
		t.Errorf("one-year failure prob = %v, want 0.04", got)
	}
	// Memorylessness: same probability regardless of window start.
	if got := FailProb(c, 5*HoursPerYear, HoursPerYear); !almostEq(got, 0.04, 1e-12) {
		t.Errorf("shifted window prob = %v, want 0.04", got)
	}
}

func TestFailProbZeroOrNegativeWindow(t *testing.T) {
	c := FromAFR(0.5)
	if FailProb(c, 100, 0) != 0 || FailProb(c, 100, -5) != 0 {
		t.Error("empty window must have zero failure probability")
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	w := Weibull{Shape: 1, Scale: 2000}
	c := Constant{Rate: 1.0 / 2000}
	for _, tt := range []float64{0, 1, 500, 10000} {
		if !almostEq(w.Hazard(tt), c.Hazard(tt), 1e-12) {
			t.Errorf("hazard mismatch at %v: %v vs %v", tt, w.Hazard(tt), c.Hazard(tt))
		}
		if !almostEq(w.CumHazard(tt), c.CumHazard(tt), 1e-12) {
			t.Errorf("cum hazard mismatch at %v", tt)
		}
	}
}

func TestWeibullHazardMonotonicity(t *testing.T) {
	wear := Weibull{Shape: 3, Scale: 1000}
	infant := Weibull{Shape: 0.5, Scale: 1000}
	times := []float64{1, 10, 100, 1000, 10000}
	for i := 1; i < len(times); i++ {
		if wear.Hazard(times[i]) <= wear.Hazard(times[i-1]) {
			t.Errorf("wear-out hazard must increase: h(%v)=%v h(%v)=%v",
				times[i-1], wear.Hazard(times[i-1]), times[i], wear.Hazard(times[i]))
		}
		if infant.Hazard(times[i]) >= infant.Hazard(times[i-1]) {
			t.Errorf("infant hazard must decrease")
		}
	}
	if !math.IsInf(infant.Hazard(0), 1) {
		t.Error("infant hazard at 0 must be +Inf")
	}
	if wear.Hazard(0) != 0 {
		t.Error("wear-out hazard at 0 must be 0")
	}
}

func TestBathtubShape(t *testing.T) {
	b := TypicalDiskBathtub()
	early := b.Hazard(24)                // day one
	mid := b.Hazard(2.5 * HoursPerYear)  // useful life
	late := b.Hazard(9.5 * HoursPerYear) // wear-out
	if !(early > mid) {
		t.Errorf("bathtub: early %v must exceed mid-life %v", early, mid)
	}
	if !(late > mid) {
		t.Errorf("bathtub: wear-out %v must exceed mid-life %v", late, mid)
	}
	// Mid-life annualised failure should be near the floor AFR (within 3x:
	// the Weibull arms contribute a little).
	annual := FailProb(b, 2*HoursPerYear, HoursPerYear)
	if annual < 0.012 || annual > 0.05 {
		t.Errorf("mid-life annual failure %v out of plausible band", annual)
	}
}

func TestCumHazardMonotoneProperty(t *testing.T) {
	curves := []Curve{
		FromAFR(0.04),
		Weibull{Shape: 0.7, Scale: 5000},
		Weibull{Shape: 4, Scale: 20000},
		TypicalDiskBathtub(),
	}
	f := func(a, b float64) bool {
		t1 := math.Abs(math.Mod(a, 1e5))
		t2 := t1 + math.Abs(math.Mod(b, 1e5))
		for _, c := range curves {
			if c.CumHazard(t2) < c.CumHazard(t1)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPiecewise(t *testing.T) {
	p, err := NewPiecewise([]Segment{
		{End: 100, Rate: 1e-3}, // rollout window: elevated
		{End: 200, Rate: 1e-5},
	}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Hazard(50); got != 1e-3 {
		t.Errorf("Hazard(50)=%v", got)
	}
	if got := p.Hazard(150); got != 1e-5 {
		t.Errorf("Hazard(150)=%v", got)
	}
	if got := p.Hazard(1000); got != 1e-4 {
		t.Errorf("Hazard(1000)=%v (tail)", got)
	}
	if got := p.CumHazard(100); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("CumHazard(100)=%v", got)
	}
	if got := p.CumHazard(150); !almostEq(got, 0.1+50e-5, 1e-12) {
		t.Errorf("CumHazard(150)=%v", got)
	}
	if got := p.CumHazard(300); !almostEq(got, 0.1+1e-3+100e-4, 1e-12) {
		t.Errorf("CumHazard(300)=%v", got)
	}
	if p.CumHazard(-1) != 0 {
		t.Error("negative time must give 0 cum hazard")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise([]Segment{{End: 10, Rate: 1}, {End: 5, Rate: 1}}, 0); err == nil {
		t.Error("non-increasing segment ends must be rejected")
	}
	if _, err := NewPiecewise([]Segment{{End: 10, Rate: -1}}, 0); err == nil {
		t.Error("negative rate must be rejected")
	}
	if _, err := NewPiecewise(nil, -1); err == nil {
		t.Error("negative tail must be rejected")
	}
}

func TestScaledAndShifted(t *testing.T) {
	base := Weibull{Shape: 2, Scale: 1000}
	s := Scaled{Base: base, Factor: 3}
	if !almostEq(s.CumHazard(500), 3*base.CumHazard(500), 1e-12) {
		t.Error("scaled cum hazard mismatch")
	}
	if !almostEq(s.Hazard(500), 3*base.Hazard(500), 1e-12) {
		t.Error("scaled hazard mismatch")
	}
	sh := Shifted{Base: base, Offset: 1000}
	if !almostEq(sh.Hazard(0), base.Hazard(1000), 1e-12) {
		t.Error("shifted hazard mismatch")
	}
	if sh.CumHazard(0) != 0 {
		t.Error("shifted cum hazard at 0 must be 0")
	}
	if !almostEq(sh.CumHazard(500), base.CumHazard(1500)-base.CumHazard(1000), 1e-12) {
		t.Error("shifted cum hazard window mismatch")
	}
	// FailProb of shifted curve == conditional FailProb of base at offset.
	if !almostEq(FailProb(sh, 0, 500), FailProb(base, 1000, 500), 1e-12) {
		t.Error("shifted FailProb mismatch")
	}
}
