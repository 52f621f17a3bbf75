package faultcurve

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Domain is a named failure domain — a rack, an availability zone, a power
// feed, a software-rollout cohort. Every member node shares a common-cause
// shock: with probability ShockProb the domain-wide event occurs during the
// mission window and multiplies each member's fault probabilities.
// Conditioned on the shock outcome, member faults are independent again,
// which is what keeps the exact domain-aware analysis in internal/core
// tractable (a per-domain two-component mixture).
//
// Shocks of distinct domains are independent of each other; a node belongs
// to at most one domain.
type Domain struct {
	// Name identifies the domain; node membership references it
	// (core.Node.Domain). Names do not influence any probability.
	Name string
	// ShockProb is the probability the common-cause event occurs during
	// the mission window.
	ShockProb float64
	// CrashMultiplier scales every member's PCrash when the shock fires
	// (1 leaves it unchanged; the elevated profile is clamped valid).
	CrashMultiplier float64
	// ByzMultiplier scales every member's PByz when the shock fires — a
	// bad rollout of a buggy binary is exactly this.
	ByzMultiplier float64
}

// Validate rejects out-of-range shock parameters.
func (d Domain) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("faultcurve: domain needs a name")
	}
	if math.IsNaN(d.ShockProb) || d.ShockProb < 0 || d.ShockProb > 1 {
		return fmt.Errorf("faultcurve: domain %q shock probability %v out of [0, 1]", d.Name, d.ShockProb)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{"crash", d.CrashMultiplier}, {"byz", d.ByzMultiplier}} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
			return fmt.Errorf("faultcurve: domain %q %s multiplier %v must be finite and >= 0", d.Name, m.name, m.v)
		}
	}
	return nil
}

// Elevate returns the member profile conditioned on the shock having
// fired: crash and Byzantine mass scaled by the multipliers, preserving the
// crash/byz ratio if the scaled total would exceed 1 and clamping each
// component to [0, 1].
func (d Domain) Elevate(p Profile) Profile {
	pc := p.PCrash * d.CrashMultiplier
	pb := p.PByz * d.ByzMultiplier
	if pc+pb > 1 {
		scale := 1 / (pc + pb)
		pc *= scale
		pb *= scale
	}
	return Profile{PCrash: dist.Clamp01(pc), PByz: dist.Clamp01(pb)}
}
