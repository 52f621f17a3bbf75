package montecarlo

import "fmt"

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
