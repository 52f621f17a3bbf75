package faultcurve

import (
	"math"
	"testing"
)

func TestProfileConstructors(t *testing.T) {
	c := Crash(0.04)
	if c.PCrash != 0.04 || c.PByz != 0 {
		t.Errorf("Crash profile = %+v", c)
	}
	b := Byzantine(0.01)
	if b.PByz != 0.01 || b.PCrash != 0 {
		t.Errorf("Byzantine profile = %+v", b)
	}
	if got := Crash(1.5).PCrash; got != 1 {
		t.Errorf("Crash clamps: %v", got)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := (Profile{PCrash: 0.5, PByz: 0.4}).Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	if err := (Profile{PCrash: 0.7, PByz: 0.4}).Validate(); err == nil {
		t.Error("sum > 1 must be rejected")
	}
	if err := (Profile{PCrash: -0.1}).Validate(); err == nil {
		t.Error("negative crash must be rejected")
	}
	if err := (Profile{PCrash: math.NaN()}).Validate(); err == nil {
		t.Error("NaN crash must be rejected")
	}
	if err := (Profile{PCrash: 0.1, PByz: math.NaN()}).Validate(); err == nil {
		t.Error("NaN byz must be rejected")
	}
}

func TestWindowProfileSplitsByzFraction(t *testing.T) {
	c := FromAFR(0.04)
	p := WindowProfile(c, 0, HoursPerYear, 0.0025) // Google-style ratio
	if !almostEq(p.PFail(), 0.04, 1e-9) {
		t.Errorf("total fault prob %v, want 0.04", p.PFail())
	}
	if !almostEq(p.PByz, 0.04*0.0025, 1e-9) {
		t.Errorf("byz slice %v", p.PByz)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("window profile invalid: %v", err)
	}
	// byzFraction clamped.
	p2 := WindowProfile(c, 0, HoursPerYear, 2)
	if p2.PCrash != 0 || !almostEq(p2.PByz, 0.04, 1e-9) {
		t.Errorf("clamped byz fraction: %+v", p2)
	}
}

func TestUniformProfilesAndConversions(t *testing.T) {
	ps := UniformProfiles(5, Crash(0.08))
	if len(ps) != 5 {
		t.Fatalf("len=%d", len(ps))
	}
	for _, p := range ps {
		if p.PCrash != 0.08 {
			t.Fatalf("profile %+v", p)
		}
	}
	if ts := ps[2].TriState(); ts.PCrash != 0.08 || ts.PByz != 0 {
		t.Errorf("TriState conversion wrong: %+v", ts)
	}
	fp := FailProbs(ps)
	if len(fp) != 5 || fp[4] != 0.08 {
		t.Errorf("FailProbs conversion wrong: %+v", fp)
	}
}

// The common-cause shock of a Domain: what a member's profile becomes
// once the shock has fired.

func TestCommonCauseElevated(t *testing.T) {
	d := Domain{Name: "zone", ShockProb: 0.1, CrashMultiplier: 10, ByzMultiplier: 100}
	up := d.Elevate(Profile{PCrash: 0.01, PByz: 0.001})
	if !almostEq(up.PCrash, 0.1, 1e-12) || !almostEq(up.PByz, 0.1, 1e-12) {
		t.Errorf("elevated = %+v", up)
	}
	if up := d.Elevate(Profile{PCrash: 0.02}); !almostEq(up.PCrash, 0.2, 1e-12) || up.PByz != 0 {
		t.Errorf("elevated crash-only = %+v", up)
	}
	// Multipliers of 1 leave the profile alone.
	calm := Domain{Name: "zone", ShockProb: 0.5, CrashMultiplier: 1, ByzMultiplier: 1}
	if p := (Profile{PCrash: 0.03, PByz: 0.004}); calm.Elevate(p) != p {
		t.Errorf("unit multipliers changed %+v to %+v", p, calm.Elevate(p))
	}
}

func TestCommonCauseElevatedStaysValid(t *testing.T) {
	d := Domain{Name: "zone", CrashMultiplier: 5, ByzMultiplier: 5}
	up := d.Elevate(Profile{PCrash: 0.4, PByz: 0.3})
	if err := up.Validate(); err != nil {
		t.Errorf("elevated profile invalid: %+v (%v)", up, err)
	}
	// Ratio preserved under renormalisation: 4:3.
	if !almostEq(up.PCrash/up.PByz, 4.0/3.0, 1e-9) {
		t.Errorf("ratio not preserved: %+v", up)
	}
}
