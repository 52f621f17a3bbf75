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
//     downstream code never sees -1e-17 or 1+2e-16 from rounding; only a
//     raw sum the caller goes on to combine (RegionSum, Dot) is not.
//
// Every analysis reads a count region's truncated table (RegionPass), never
// the whole joint (#crashed, #Byzantine) table, which serves only the
// quorum sweeps and the tests as their oracle. The joint table is itself a
// region table, the general shape laid over the whole triangle: one
// in-place fold kernel writes every (c, b) table. Region tables compose:
// ResetGroup folds part of a fleet and Fold more nodes onto it, Mix takes
// convex mixtures (conditioning on a shock), and ResetFailure and FoldBack
// fold failure tables backward, which Dot reads a group against — what
// the failure-domain engine in internal/core is built from. One backward
// kernel serves them and RegionLeaveOneOut, which folds an edge's
// indicator through the fleet in reverse; its dot products with the
// forward tables give, for the optimizer, every node's leave-one-out edges.
//
// Every kernel runs on its caller's goroutine and starts none: a server's
// engine parallelism is its bounded worker slots, one query per slot.
package dist
