package montecarlo

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// Importance sampling for rare events. The paper's arguments live in deep
// tails (E5's one-in-ten-billion targeted loss); naive sampling cannot
// visit such events in any reasonable budget. Exponentially tilting the
// per-node failure probabilities makes the rare region common, and the
// likelihood-ratio weight corrects the estimate — the standard rare-event
// technique, giving the simulator a way to *validate* deep-tail claims
// instead of taking the closed forms on faith.

// ImportanceEstimate is a weighted Monte-Carlo estimate.
type ImportanceEstimate struct {
	P       float64
	StdErr  float64
	Samples int
	// EffectiveSamples estimates how many i.i.d. naive samples the
	// weighted estimate is worth (Kish's formula).
	EffectiveSamples float64
}

// String renders the estimate.
func (e ImportanceEstimate) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d, ESS=%.0f)", e.P, e.StdErr, e.Samples, e.EffectiveSamples)
}

// RunImportance estimates P[pred] where each node fails independently with
// its profile's total probability, but sampling happens at the tilted
// probabilities `tilted` (same length). Crash/Byzantine split is folded to
// "failed" — rare-event predicates of interest here depend on the failed
// set. Each sample's weight is the likelihood ratio of the true measure to
// the tilted one.
func RunImportance(profiles []faultcurve.Profile, tilted []float64, pred func(failed []bool) bool, samples int, seed int64) (ImportanceEstimate, error) {
	n := len(profiles)
	if len(tilted) != n {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: %d tilted probs for %d nodes", len(tilted), n)
	}
	if samples <= 0 {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: need samples > 0")
	}
	p := make([]float64, n)
	for i, prof := range profiles {
		p[i] = dist.Clamp01(prof.PFail())
	}
	for i, q := range tilted {
		if q <= 0 || q >= 1 {
			return ImportanceEstimate{}, fmt.Errorf("montecarlo: tilted prob %v at %d out of (0,1)", q, i)
		}
		if p[i] > 0 && (p[i] >= 1) {
			return ImportanceEstimate{}, fmt.Errorf("montecarlo: degenerate true prob at %d", i)
		}
	}
	prop := proposal{nodes: make([]cell, n), slot: make([]int, n), fired: make([]int, 1), failed: make([]bool, n)}
	for i := range prop.nodes {
		prop.nodes[i] = coinCell(p[i], tilted[i])
	}
	hit := func(int, int) bool { return pred(prop.failed) }
	return prop.estimate(samples, seed, hit), nil
}

// UniformTilt returns n copies of q — the usual choice when the rare event
// is "many failures".
func UniformTilt(n int, q float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = q
	}
	return out
}
