// Package cost searches hardware fleets for the cheapest deployment meeting
// a target reliability — the paper's §1/§3 economic argument: "one can run
// Raft on nine less reliable nodes ... if these resources are 10x cheaper,
// this yields a 3x reduction in cost", and its sustainability cousin (reuse
// older hardware at equal nines).
//
// The search space is (node class, count) assignments; each candidate is
// priced by summed per-hour cost, which is arithmetic, and scored by the
// exact engine in internal/core, which is O(N^3) — so candidates are scored
// cheapest first and the first to reach the target is the answer
// (Optimizer.cheapest; DESIGN.md "What the tier search costs"). Invariant: the optimizer never reports a configuration
// whose exact safe-and-live probability is below the requested nines
// target — reliability is a constraint, price the objective.
package cost
