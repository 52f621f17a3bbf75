// Package campaign closes the loop between the paper's analytic
// predicates and the repo's executing state machines: it drives the
// discrete-event Raft/PBFT clusters under injected fault *schedules* —
// independent crashes drawn from the fleet's fault profiles, correlated
// zone shocks through core.Node.Domain, leader-isolating partitions, and
// rolling-upgrade cohorts — records empirical safety/liveness/
// availability per scheduled configuration with Wilson 99% confidence
// intervals from internal/dist, and reports how far the measured
// availability diverges from what the exact engine predicts for the same
// fleet model.
//
// The statistical design makes the comparison rigorous rather than
// anecdotal: every trial samples its failure configuration from exactly
// the measure the exact engine integrates (per-domain Bernoulli shocks,
// then per-node trinomial draws from the shock-elevated profiles) through
// the sampler kernel /v1/tail uses, montecarlo.Draws, untilted, and the
// simulator supplies the per-configuration safety/liveness predicate. If
// the protocol implementations obey Theorems 3.1/3.2, the measured
// availability is a binomial draw from the predicted probability and the
// Wilson interval covers it; a run where the interval misses — or where
// any single trial's outcome contradicts the theorem's prediction for the
// realized configuration (the config_mismatches column) — localizes a
// divergence between the executing protocol and the analytic model.
//
// RunConfig is the same trial with the failure configuration imposed by
// the caller instead of sampled: the theorem-validation experiments
// (V1/V2 and the theorem sweep in this package's theorem_test.go) walk
// chosen configurations through it, so every simulated-cluster run in the
// repo shares one driver.
//
// Everything is deterministic under a pinned seed: trial seeds derive
// from (schedule seed, cell index, trial index), trials run in parallel
// but land in index-addressed slots, and the report marshals with fixed
// field order, so repeat runs are byte-identical (pinned by the golden
// and -race tests).
package campaign
