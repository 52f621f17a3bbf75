// Package markov provides the continuous-time Markov reliability models the
// storage community uses (§2 of the paper) — MTTF, MTBF, MTTDL via
// birth-death chains with failure rate λ and repair rate μ — applied to
// consensus deployments: "time to data loss" becomes "time until the
// protocol leaves its safe (or live) envelope".
//
// States track the number of failed nodes, 0..N. Transitions:
//
//	k -> k+1 at rate (N-k)·λ   (one of the surviving nodes fails)
//	k -> k-1 at rate min(k,R)·μ (up to R concurrent repairs)
//
// States at or beyond the protocol's tolerance are absorbing for the
// mean-hitting-time computations. Expected hitting times solve a tridiagonal
// linear system exactly (Thomas algorithm).
package markov
