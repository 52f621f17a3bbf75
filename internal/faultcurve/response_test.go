package faultcurve

import (
	"math"
	"testing"
)

func TestExpResponseShape(t *testing.T) {
	r := HardeningResponse(0.08, 0.1, 0.25)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.Prob(0); math.Abs(got-0.08) > 1e-15 {
		t.Errorf("Prob(0) = %v, want the base probability 0.08", got)
	}
	if got := r.Prob(math.Inf(1)); math.Abs(got-0.008) > 1e-15 {
		t.Errorf("Prob(inf) = %v, want the floor 0.008", got)
	}
	// Non-increasing, within [0, 1], even for negative finite-difference
	// probes.
	prev := math.Inf(1)
	for s := -0.1; s <= 3; s += 0.01 {
		p := r.Prob(s)
		if p < 0 || p > 1 {
			t.Fatalf("Prob(%v) = %v outside [0, 1]", s, p)
		}
		if p > prev+1e-15 {
			t.Fatalf("Prob increased at spend %v", s)
		}
		prev = p
	}
	// One e-folding of the reducible share at spend = Scale.
	want := 0.008 + 0.072*math.Exp(-1)
	if got := r.Prob(0.25); math.Abs(got-want) > 1e-15 {
		t.Errorf("Prob(Scale) = %v, want %v", got, want)
	}
}

func TestExpResponseDerivative(t *testing.T) {
	r := HardeningResponse(0.05, 0.2, 0.5)
	for _, s := range []float64{0, 0.1, 0.5, 1.5} {
		h := 1e-6
		numeric := (r.Prob(s+h) - r.Prob(s-h)) / (2 * h)
		if diff := math.Abs(r.DProb(s) - numeric); diff > 1e-9 {
			t.Errorf("DProb(%v) = %v, numeric %v (|Δ| = %.3g)", s, r.DProb(s), numeric, diff)
		}
		if r.DProb(s) >= 0 {
			t.Errorf("DProb(%v) = %v, want strictly negative", s, r.DProb(s))
		}
	}
}

// TestExpResponseDerivativeAtBoundary pins the clamp-region rule: the
// derivative is zero only strictly outside [0, 1], so a base probability
// of exactly 1 (a certainly-failing node) keeps its true negative
// derivative at spend 0.
func TestExpResponseDerivativeAtBoundary(t *testing.T) {
	r := HardeningResponse(1.0, 0.1, 0.25)
	want := -(1.0 - 0.1) / 0.25
	if got := r.DProb(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("DProb(0) at base p=1: got %v, want %v", got, want)
	}
	// Deep in the negative-spend clamp region the curve is flat.
	if got := r.DProb(-10); got != 0 {
		t.Errorf("DProb in the clamped region: got %v, want 0", got)
	}
}

func TestExpResponseValidate(t *testing.T) {
	cases := []ExpResponse{
		{P0: -0.1, Floor: 0, Scale: 1},
		{P0: 1.5, Floor: 0, Scale: 1},
		{P0: 0.5, Floor: 0.6, Scale: 1},
		{P0: 0.5, Floor: -0.1, Scale: 1},
		{P0: 0.5, Floor: 0.1, Scale: 0},
		{P0: 0.5, Floor: 0.1, Scale: math.Inf(1)},
		{P0: math.NaN(), Floor: 0.1, Scale: 1},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%+v): want validation error", i, r)
		}
	}
}

// TestExpResponseDProbOneExp pins DProb, which evaluates the exponential
// once, to the two-exponential expression it replaced with ==, over
// spends that cover negative finite-difference probes, the clamped region
// on both sides (p > 1 and, for a curve Validate would refuse, p < 0) and
// a curve with nothing to reduce (P0 == Floor).
func TestExpResponseDProbOneExp(t *testing.T) {
	twoExp := func(r ExpResponse, spend float64) float64 {
		p := r.Floor + (r.P0-r.Floor)*math.Exp(-spend/r.Scale)
		if p < 0 || p > 1 {
			return 0
		}
		return -(r.P0 - r.Floor) * math.Exp(-spend/r.Scale) / r.Scale
	}
	curves := []ExpResponse{
		HardeningResponse(0.08, 0.1, 0.25),
		HardeningResponse(1, 0.1, 0.25), // p > 1 at any negative spend
		{P0: 0.3, Floor: 0.3, Scale: 0.5},
		{P0: 0.2, Floor: -0.4, Scale: 0.5}, // p < 0 past spend ≈ 0.2
		HardeningResponse(0, 0, 1),
	}
	var below, above int
	for _, r := range curves {
		for spend := -2.0; spend <= 4; spend += 1.0 / 64 {
			got, want := r.DProb(spend), twoExp(r, spend)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at spend %v: DProb %v, two-exp expression %v", r, spend, got, want)
			}
			switch p := r.Floor + (r.P0-r.Floor)*math.Exp(-spend/r.Scale); {
			case p < 0:
				below++
			case p > 1:
				above++
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("the sweep reached p < 0 at %d spends and p > 1 at %d; it must reach both", below, above)
	}
}
