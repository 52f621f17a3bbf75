package montecarlo

import (
	"fmt"

	"repro/internal/faultcurve"
)

// Trinomial importance sampling: the deep-tail estimator behind the
// service's /v1/tail endpoint. It keeps the full trinomial per node —
// correct, crashed, or Byzantine — because protocol predicates
// distinguish the two faults (Theorem 3.1's safety depends on the
// Byzantine count alone), and supports correlated failure domains by
// sampling the shock layer first, exactly as the exact mixture engine
// conditions on it. Tilting raises every node's failure mass (preserving
// its crash/Byzantine split) and optionally the per-domain shock
// probabilities; the likelihood ratio corrects the estimate.

// TriPred decides the rare event from one sampled configuration's fault
// counts — the same (crashed, Byzantine) signature as core.CountModel's
// predicates, so "unavailable" is literally !model.Live.
type TriPred func(crashed, byz int) bool

// TriTilt parameterizes the proposal distribution.
type TriTilt struct {
	// Boost multiplies every node's total failure mass (crash + Byzantine,
	// elevated by any fired shock), preserving the crash/Byzantine ratio.
	// The tilted mass is clamped to [true mass, MaxTiltMass] so tilting
	// never moves probability *away* from the rare region and weights stay
	// bounded. Boost <= 1 leaves the nodes untilted; NaN is refused.
	Boost float64
	// ShockProb, when in (0, 1), replaces every domain's shock probability
	// in the proposal — shocks dominate deep tails of correlated fleets,
	// so 0.5 is the standard choice. Zero keeps the true shock
	// probabilities (no shock tilt). Domains whose true shock is 0 or 1
	// are never tilted: their outcome is deterministic under the true
	// measure.
	ShockProb float64
}

// MaxTiltMass caps a tilted node's total failure probability. Tilting all
// the way to 1 would make the "node survives" likelihood ratio infinite.
const MaxTiltMass = 0.5

// TiltForCount returns the tilt that makes the expected number of failed
// nodes roughly k — the standard exponential-tilt heuristic for the event
// "at least k failures". Shock tilt defaults to 0.5 when any domain could
// fire, chosen by the caller via withShocks.
func TiltForCount(profiles []faultcurve.Profile, k int, withShocks bool) TriTilt {
	var mass float64
	for _, p := range profiles {
		mass += p.PFail()
	}
	t := TriTilt{Boost: 1}
	if mass > 0 && float64(k) > mass {
		t.Boost = float64(k) / mass
	}
	if withShocks {
		t.ShockProb = 0.5
	}
	return t
}

// RunImportanceTri estimates P[pred(crashed, byz)] under the exact
// measure the analytic engines integrate: per-domain Bernoulli shocks,
// then per-node trinomial draws from the (possibly shock-elevated)
// profiles. member[i] is the index into domains of node i's failure
// domain, or -1 for an independent node; domains may be empty. Sampling
// happens under tilt; every sample's weight is the likelihood ratio of
// the true measure to the proposal, so the estimate is unbiased for any
// tilt. Cost is O(samples * (n + len(domains))) after an O(n) table build:
// every draw-independent quantity is computed once per run (Draws.Reset).
func RunImportanceTri(profiles []faultcurve.Profile, member []int, domains []faultcurve.Domain,
	tilt TriTilt, pred TriPred, samples int, seed int64) (ImportanceEstimate, error) {
	var d Draws
	if err := d.Reset(profiles, member, domains, tilt); err != nil {
		return ImportanceEstimate{}, err
	}
	if samples <= 0 {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: need samples > 0, got %d", samples)
	}
	var s Stream
	s.Seed(seed)
	return d.estimate(samples, &s, pred), nil
}
