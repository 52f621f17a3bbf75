// Package dist is the numeric kernel of the reproduction: probability
// distributions and numerically careful helpers shared by every analysis
// engine (the count-region and joint-count DPs, the 3^N enumerator, the
// Monte-Carlo samplers, the quorum metrics, the cost analyses).
//
// Everything here is dependency-free and allocation-light: these routines
// sit on the hot path of the DPs and million-sample Monte-Carlo loops.
// Three numeric policies hold throughout:
//
//   - tails and combinatorics are computed in log space (no overflow,
//     no catastrophic cancellation for probabilities near 0 or 1);
//   - series are accumulated with compensated (Kahan-Neumaier) summation;
//   - every probability returned to a caller is clamped to [0, 1], so
//     downstream code never sees -1e-17 or 1+2e-16 from rounding.
//
// Every analysis reads a count region's truncated table (RegionPass), never
// the whole joint (#crashed, #Byzantine) table, which serves only the
// quorum sweeps and the tests as their oracle. The joint table is itself a
// region table, the general shape laid over the whole triangle: one
// in-place fold kernel writes every (c, b) table. Region tables compose:
// ResetGroup folds part of a fleet, Mix takes convex mixtures
// (conditioning on a shock), Convolve adds the counts of independent
// groups, and Shifted and Dot answer a group against the rest of the fleet
// — what the failure-domain engine in internal/core is built from. A
// region table also folds backward: RegionLeaveOneOut folds an edge's
// indicator through the fleet in reverse, and its dot products with the
// forward tables give, for the optimizer, every node's leave-one-out edges.
//
// Every kernel runs on its caller's goroutine and starts none: a server's
// engine parallelism is its bounded worker slots, one query per slot.
package dist
