package optimize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faultcurve"
)

// Allocation is the result of a budget-allocation solve: where the money
// goes and what it buys.
type Allocation struct {
	// Spend is the per-node (or per-domain) allocation.
	Spend []float64
	// Base is the exact Result at zero spend.
	Base core.Result
	// Optimized is the exact Result at Spend.
	Optimized core.Result
	// Uniform is the exact Result when the budget is split evenly — the
	// baseline an optimizer must beat to matter.
	Uniform core.Result
	// Solution carries the solver certificate: duality Gap, Iterations,
	// Converged, Evaluations.
	Solution
}

// NinesGainedOverUniform reports how many nines the optimized split buys
// beyond the even split of the same budget.
func (a Allocation) NinesGainedOverUniform() float64 {
	return a.Optimized.Nines() - a.Uniform.Nines()
}

// SolveHardening allocates the node-hardening budget by away-step
// Frank-Wolfe over the budget-knapsack polytope and certifies the result
// with the duality gap.
func SolveHardening(p HardeningProblem, opts Options) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	return solveAllocation(p.Objective(), p.Polytope(), opts, len(p.Fleet), p.Budget, p.Eval)
}

// SolveDomainHardening allocates the shock-hardening budget across
// failure domains the same way.
func SolveDomainHardening(p DomainHardeningProblem, opts Options) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	return solveAllocation(p.Objective(), p.Polytope(), opts, len(p.Domains), p.Budget, p.Eval)
}

// solveAllocation runs the shared solve-and-report path of both
// applications.
func solveAllocation(obj Objective, poly Knapsack, opts Options, dim int, budget float64, eval func([]float64) core.Result) (Allocation, error) {
	sol, err := AwayStepFrankWolfe(obj, poly, opts)
	if err != nil {
		return Allocation{}, err
	}
	zero := make([]float64, dim)
	uniform := make([]float64, dim)
	per := math.Min(budget/float64(dim), poly.Hi[0])
	for i := range uniform {
		uniform[i] = per
	}
	return Allocation{
		Spend:     sol.X,
		Base:      eval(zero),
		Optimized: eval(sol.X),
		Uniform:   eval(uniform),
		Solution:  sol,
	}, nil
}

// fingerprintDomain versions the optimize cache-key encoding, keeping it
// disjoint from the analysis-query hash domain.
const fingerprintDomain = "probcons-optimize-v1"

// Fingerprint returns the canonical cache key of a hardening solve:
// identical keys guarantee identical Allocations (the solver is
// deterministic). Unlike the analyze fingerprint, the encoding is
// POSITIONAL — node order matters, because the cached Spend vector is
// indexed by node. The analyze fingerprint's sorted, permutation-
// invariant encoding would alias permuted fleets onto each other's
// allocations. Only ExpResponse curves are fingerprintable; other
// Response implementations get an error rather than a silently
// colliding key.
func (p HardeningProblem) Fingerprint(opts Options) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	return allocationFingerprint("nodes", p.Fleet, p.Model, p.Domains, p.Curves, p.Budget, capPer(p.MaxPerNode, p.Budget), opts)
}

// Fingerprint is the domain-hardening counterpart of
// HardeningProblem.Fingerprint; here the Spend vector is indexed by
// domain, so domain order is likewise part of the key.
func (p DomainHardeningProblem) Fingerprint(opts Options) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	return allocationFingerprint("domains", p.Fleet, p.Model, p.Domains, p.Curves, p.Budget, capPer(p.MaxPerDomain, p.Budget), opts)
}

// allocationFingerprint hashes, in order: the target; (fleet, model, domains)
// order-sensitively — per-node profile bits plus the index of the node's
// domain, each domain's shock parameters, the model (Name encodes every
// quorum parameter for the models in this repo); budget, cap and options;
// the curves. Every float is encoded as core's fingerprints encode it, exact
// bits with -0 folded onto +0 (x + 0), so "p_byz": -0 and "p_byz": 0 are one
// problem under one key.
func allocationFingerprint(target string, fleet core.Fleet, m core.CountModel, domains core.DomainSet, curves []faultcurve.Response, budget, capPer float64, opts Options) (string, error) {
	member, err := core.ResolveDomains(fleet, domains)
	if err != nil {
		return "", err
	}
	opts = opts.withDefaults()
	buf := make([]byte, 0, 128+24*len(fleet)+24*len(domains)+24*len(curves))
	appendU := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	appendF := func(v float64) { appendU(math.Float64bits(v + 0)) }
	buf = append(buf, fingerprintDomain...)
	buf = append(buf, target...)
	appendU(uint64(len(fleet)))
	for i, n := range fleet {
		appendF(n.Profile.PCrash)
		appendF(n.Profile.PByz)
		appendU(uint64(int64(member[i])))
	}
	appendU(uint64(len(domains)))
	for _, d := range domains {
		appendF(d.ShockProb)
		appendF(d.CrashMultiplier)
		appendF(d.ByzMultiplier)
	}
	appendU(uint64(m.N()))
	buf = append(buf, m.Name()...)
	appendF(budget)
	appendF(capPer)
	appendF(float64(opts.MaxIterations))
	appendF(opts.GapTolerance)
	// The step-rule slot of probcons-optimize-v1: there is one step rule,
	// and the slot keeps the value it always had so existing keys hold.
	appendF(0)
	// TrackGaps changes the returned Allocation (its Gaps field), so it
	// is part of the key like every other option.
	trackGaps := 0.0
	if opts.TrackGaps {
		trackGaps = 1
	}
	appendF(trackGaps)
	for i, c := range curves {
		exp, ok := c.(faultcurve.ExpResponse)
		if !ok {
			return "", fmt.Errorf("optimize: curve %d (%T) is not fingerprintable; use faultcurve.ExpResponse for cached solves", i, c)
		}
		appendF(exp.P0)
		appendF(exp.Floor)
		appendF(exp.Scale)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
