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
// The joint (#crashed, #Byzantine) tables compose: MixJointCrashByz takes
// convex mixtures (conditioning on a shock) and ConvolveJointCrashByz adds
// counts of independent groups — what the failure-domain engine in
// internal/core is built from. A count region's truncated table (RegionPass)
// also deflates: RegionLeaveOneOut takes one node back out of it, by
// forward substitution under a running round-off bound, for the optimizer.
//
// Every kernel runs on its caller's goroutine and starts none: a server's
// engine parallelism is its bounded worker slots, one query per slot.
package dist
