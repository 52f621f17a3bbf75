// Package montecarlo provides sampling-based estimation of deployment
// reliability. It complements the exact engines in internal/core in two
// directions the paper highlights: fleets too large (or predicates too rich)
// to enumerate, and correlated fault processes (§2(3)) that break the
// independence assumption the closed forms need.
//
// Draws is the product's one sampler of the failure measure: per-domain
// shocks first, then each node's correct / crashed / Byzantine outcome —
// the sampling mirror of core.AnalyzeDomains — optionally tilted toward a
// rare event. RunImportanceTri (serves POST /v1/tail),
// core.AnalyzeDomainsMonteCarlo and the campaign runner's trials draw
// through it. BetaCrash (beta-binomial fault clustering from the storage
// literature) is a separate correlated process, composed with any
// predicate through Run, which reports Wilson intervals that behave at
// p̂ ∈ {0, 1}.
//
// The kernel's invariants are part of the package's contract, because
// served and recorded estimates are compared with ==:
//
//   - The caller's Stream, which is rand.NewSource(seed)'s output
//     sequence exactly (RunImportanceTri seeds one per run), so every
//     draw is the value rand.New(rand.NewSource(seed)).Float64 would
//     return — including its rule of drawing again on a value that
//     rounds to 1 — read from a block buffer instead of through
//     math/rand's interface.
//   - Each sample takes exactly one such draw per domain, in domain
//     order, then exactly one per node, in node order — whether or not
//     the coin is degenerate (probability 0 or 1) or tilted. A node's
//     crash outcome is the low end of its draw's range, Byzantine the
//     next; never both.
//   - A sample's log-weight is the sum, in that same order, of one
//     increment per draw; each increment is (log true − log proposal) of
//     the outcome drawn. The increments depend only on (coin, shock
//     state, outcome), so they are computed once per Reset; the sum is
//     not reassociated. Next only counts; LogW sums the increments of
//     the recorded outcomes, and the estimator calls it — and
//     exponentiates — only for samples the predicate accepts.
//   - Hence same inputs and seed give the same numbers bit for bit, on
//     any run and against the loops the kernel replaced, kept as test
//     oracles drawing from rand.New(rand.NewSource(seed)): oracle_test.go
//     (TestKernelMatchesOracle*), core's TestMonteCarloMatchesOracle, and
//     campaign's TestDrawConfigMatchesOracle (on cells with one kind of
//     fault: the old campaign loop drew Byzantine first). stream_test.go
//     pins Stream to rand.NewSource output for output.
package montecarlo
