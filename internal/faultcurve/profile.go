package faultcurve

import (
	"fmt"

	"repro/internal/dist"
)

// Profile is a node's static fault profile over a mission window: the
// tri-state model of §2(4). PCrash is the probability the node is
// crash-faulty during the window; PByz the probability it is Byzantine
// (arbitrary behaviour: mercurial cores, compromised TEEs).
type Profile struct {
	PCrash float64
	PByz   float64
}

// Crash returns a crash-only profile with failure probability p — the model
// behind Table 2 (Raft, uniform p_u).
func Crash(p float64) Profile { return Profile{PCrash: dist.Clamp01(p)} }

// Byzantine returns a Byzantine-only profile with probability p — the model
// behind Table 1 (PBFT, uniform p_u).
func Byzantine(p float64) Profile { return Profile{PByz: dist.Clamp01(p)} }

// PFail returns the total fault probability.
func (p Profile) PFail() float64 { return dist.Clamp01(p.PCrash + p.PByz) }

// TriState converts to the dist kernel representation.
func (p Profile) TriState() dist.TriState {
	return dist.TriState{PCrash: p.PCrash, PByz: p.PByz}
}

// Validate reports an error if the probabilities are out of range. The
// test is written in the accepting form so that a NaN, which fails every
// comparison, is refused.
func (p Profile) Validate() error {
	if !(p.PCrash >= 0 && p.PByz >= 0 && p.PCrash+p.PByz <= 1) {
		return fmt.Errorf("faultcurve: invalid profile crash=%v byz=%v", p.PCrash, p.PByz)
	}
	return nil
}

// WindowProfile collapses a fault curve into a static Profile for the
// mission window [t0, t0+d]: the probability of any fault comes from the
// curve, and byzFraction of that mass is attributed to Byzantine behaviour
// (§2(4): Byzantine faults are a small, non-zero slice of the fault budget —
// approx 0.01%/4% ≈ 0.25% at Google).
func WindowProfile(c Curve, t0, d, byzFraction float64) Profile {
	p := FailProb(c, t0, d)
	bf := dist.Clamp01(byzFraction)
	return Profile{
		PCrash: p * (1 - bf),
		PByz:   p * bf,
	}
}

// UniformProfiles returns n copies of the same profile — the homogeneous
// fleets of Tables 1 and 2.
func UniformProfiles(n int, p Profile) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// FailProbs extracts total failure probabilities.
func FailProbs(profiles []Profile) []float64 {
	out := make([]float64, len(profiles))
	for i, p := range profiles {
		out[i] = p.PFail()
	}
	return out
}
