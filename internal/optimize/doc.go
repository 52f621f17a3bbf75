// Package optimize is the projection-free constrained-minimization
// subsystem: conditional-gradient (Frank-Wolfe) methods over the feasible
// polytopes of reliability-budget questions, driven entirely through
// linear-minimization oracles — no projections, no external solver.
//
// What it answers that the tier search (internal/cost) cannot: continuous
// allocation questions. "I have a $B hardening budget — how do I split it
// across nodes (or across zone shock-hardening) to maximize nines?" The
// paper's exact engines (internal/core) evaluate any candidate fleet;
// this package searches the continuum around them.
//
// Three layers:
//
//   - Polytopes (polytope.go): the linear-minimization oracle (LMO) of
//     the budget knapsack. An LMO answers min_{v in P} <g, v> at a vertex —
//     the only geometric primitive Frank-Wolfe needs. (The solver's tests
//     add a budgeted simplex in polytope_test.go.)
//   - The solver (fw.go): away-step Frank-Wolfe with the duality-gap
//     stopping certificate g(x) = max_v <∇f(x), x-v> (an upper bound on
//     f(x)-f* for convex f, a stationarity measure otherwise). Away steps
//     escape the zig-zagging that caps vanilla FW at O(1/t) when the
//     optimum sits on a face, which is where budget optima sit. One step
//     rule: the root of the directional derivative along the step.
//   - Objectives (objective.go, hardening.go): adapters mapping a decision
//     vector to per-node or per-domain fault probabilities through
//     faultcurve spend→probability response curves, evaluating
//     log-unavailability via the exact engines. Gradients are analytic,
//     with or without correlated domains: one run of the engine's gradient
//     (core.Evaluator.Gradient), a walk and a leave-one-out per domain
//     branch, for every coordinate at once.
//
// Invariants: every iterate is a convex combination of LMO vertices
// and therefore feasible — no projection can be needed by construction.
// The reported Gap is always a true certificate computed from a fresh LMO
// call at the returned point.
package optimize
