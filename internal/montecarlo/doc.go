// Package montecarlo provides sampling-based estimation of deployment
// reliability. It complements the exact engines in internal/core in two
// directions the paper highlights: fleets too large (or predicates too rich)
// to enumerate, and correlated fault processes (§2(3)) that break the
// independence assumption the closed forms need.
//
// Samplers compose with any predicate over sampled configurations:
// Independent (the §3 baseline) and BetaCrash (beta-binomial fault
// clustering from the storage literature). Correlated failure domains are
// sampled by RunImportanceTri below — per-domain shocks drawn first, then
// nodes, the sampling mirror of core.AnalyzeDomains, and a plain sampler
// when untilted (Boost 1). Invariants: every sampler
// draws all randomness from the caller's single seeded RNG (runs are
// bit-reproducible), a node is never both crashed and Byzantine in one
// sample, and Run reports Wilson intervals that behave at p̂ ∈ {0, 1}.
//
// The importance samplers (RunImportance, RunImportanceTri — the latter
// serves POST /v1/tail) share one table-driven kernel, proposal.go, and
// its invariants are part of the package's contract, because served and
// recorded estimates are compared with ==:
//
//   - One generator per run, math/rand seeded with the caller's seed.
//   - Each sample takes exactly one Float64 draw per domain, in domain
//     order, then exactly one per node, in node order — whether or not
//     the coin is degenerate (probability 0 or 1) or tilted.
//   - A sample's log-weight is the sum, in that same order, of one
//     increment per draw; each increment is (log true − log proposal) of
//     the outcome drawn. The increments depend only on (coin, shock
//     state, outcome), so they are computed once per run; the sum is not
//     reassociated. Weights are exponentiated only for samples the
//     predicate accepts.
//   - Hence same inputs and seed give the same ImportanceEstimate bit for
//     bit, on any run and against the historical per-draw loop kept in
//     oracle_test.go (TestKernelMatchesOracle*).
package montecarlo
