package optimize

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faultcurve"
)

// This file holds the objective adapters: they map a decision vector
// (per-node or per-domain hardening spend) through faultcurve response
// curves into fault probabilities, evaluate the exact engines, and expose
// log-unavailability f(x) = ln(1 - SafeAndLive) as the smooth function the
// solvers minimize. Log keeps gradients well-scaled across many nines:
// one nine gained is one ln(10) drop in f regardless of level.

// unavailFloor guards the logarithm: float64 cannot distinguish
// probabilities within ~1e-16 of certainty, so unavailability below this
// floor is numerical silence, not signal.
const unavailFloor = 1e-300

// logUnavail maps an exact Result to the minimized objective.
func logUnavail(r core.Result) float64 {
	return math.Log(math.Max(1-r.SafeAndLive, unavailFloor))
}

// byzFraction returns the share of a profile's total fault mass that is
// Byzantine; hardened profiles preserve this split.
func byzFraction(p faultcurve.Profile) float64 {
	total := p.PCrash + p.PByz
	if total <= 0 {
		return 0
	}
	return p.PByz / total
}

// validate rejects a malformed allocation problem of either target: what
// names the problem in its errors, and it spends over dim coordinates of
// kind unit, one response curve each.
func validate(what, unit string, fleet core.Fleet, m core.CountModel, domains core.DomainSet, curves []faultcurve.Response, dim int, budget float64) error {
	if len(fleet) == 0 {
		return fmt.Errorf("optimize: %s needs a non-empty fleet", what)
	}
	if m == nil || m.N() != len(fleet) {
		return fmt.Errorf("optimize: %s model/fleet size mismatch", what)
	}
	if err := fleet.Validate(); err != nil {
		return err
	}
	if dim == 0 {
		return fmt.Errorf("optimize: %s needs at least one %s", what, unit)
	}
	if err := domains.Validate(fleet); err != nil {
		return err
	}
	if len(curves) != dim {
		return fmt.Errorf("optimize: %d response curves for %d %ss", len(curves), dim, unit)
	}
	for i, c := range curves {
		if c == nil {
			return fmt.Errorf("optimize: %s %d has no response curve", unit, i)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("optimize: %s %d: %w", unit, i, err)
		}
	}
	if math.IsNaN(budget) || math.IsInf(budget, 0) || budget <= 0 {
		return fmt.Errorf("optimize: budget must be finite and > 0, got %v", budget)
	}
	return nil
}

// capPer returns a coordinate's spend cap: maxPer when it is positive, at
// most the budget.
func capPer(maxPer, budget float64) float64 {
	if maxPer > 0 {
		return math.Min(maxPer, budget)
	}
	return budget
}

// knapsack is the budget knapsack { 0 <= x_i <= limit, Σ x_i <= budget }
// over dim coordinates with unit costs.
func knapsack(dim int, limit, budget float64) Knapsack {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i] = limit
	}
	return Knapsack{Lo: lo, Hi: hi, Budget: budget}
}

// HardeningProblem is the node-hardening budget allocation: split Budget
// across the fleet's nodes, where node i at spend x_i has total fault
// probability Curves[i].Prob(x_i) (crash/Byzantine split preserved from
// its base profile), to maximize the deployment's safe-and-live nines.
// With a non-empty Domains layout the evaluation runs the exact
// correlated engine; spends then harden nodes, not shocks (see
// DomainHardeningProblem for the latter).
type HardeningProblem struct {
	Fleet   core.Fleet
	Model   core.CountModel
	Domains core.DomainSet
	// Curves maps spend to total fault probability per node. len ==
	// len(Fleet).
	Curves []faultcurve.Response
	// Budget is the total spend to allocate (Σ x_i <= Budget; the
	// optimum always uses it all when hardening helps).
	Budget float64
	// MaxPerNode caps any one node's spend; <= 0 means Budget.
	MaxPerNode float64
}

// Validate rejects malformed problems.
func (p HardeningProblem) Validate() error {
	return validate("hardening", "node", p.Fleet, p.Model, p.Domains, p.Curves, len(p.Fleet), p.Budget)
}

// Polytope returns the feasible region: the budget knapsack over nodes.
func (p HardeningProblem) Polytope() Knapsack {
	return knapsack(len(p.Fleet), capPer(p.MaxPerNode, p.Budget), p.Budget)
}

// fleetAt materializes the hardened fleet at spend vector x: node i's
// fault probability Curves[i].Prob(x_i), its base crash/Byzantine split
// preserved.
func (p HardeningProblem) fleetAt(x []float64) core.Fleet {
	fleet := append(core.Fleet(nil), p.Fleet...)
	for i, n := range p.Fleet {
		q, bf := p.Curves[i].Prob(x[i]), byzFraction(n.Profile)
		fleet[i].Profile = faultcurve.Profile{PCrash: q * (1 - bf), PByz: q * bf}
	}
	return fleet
}

// Eval runs the exact engine on the hardened fleet at x. The problem must
// have passed Validate; hardened profiles are always valid, so the engine
// cannot reject the query.
func (p HardeningProblem) Eval(x []float64) core.Result {
	res, err := core.AnalyzeDomains(p.fleetAt(x), p.Model, p.Domains)
	if err != nil {
		panic(fmt.Sprintf("optimize: engine rejected a validated hardening query: %v", err))
	}
	return res
}

// Objective returns the minimized smooth function f(x) = ln(1 -
// SafeAndLive(x)) with its analytic gradient (hardeningGrad), whether or
// not the fleet has populated domains.
func (p HardeningProblem) Objective() Objective {
	return FuncObjective{F: func(x []float64) float64 { return logUnavail(p.Eval(x)) }, G: newHardeningGrad(p).grad}
}

// hardeningGrad is the analytic gradient of a hardening objective, over
// node or shock spend. One is built per Objective, so a solve, whose
// gradient calls are sequential, pays for its workspaces once and
// allocates nothing per call. Not safe for concurrent use.
type hardeningGrad struct {
	curves []faultcurve.Response
	bf     []float64 // per-node Byzantine share of the fault mass; nil when spend hardens shocks
	loo    engineGrad
}

// engineGrad is the problem at the current x, resolved once, on an
// evaluator of its own, and what the engine's gradient
// (core.Evaluator.Gradient) returned.
type engineGrad struct {
	e      *core.Evaluator
	q      core.Query
	mass   float64      // SafeAndLive
	edges  [][2]float64 // per node
	shocks []float64    // per domain
}

// Mass returns SafeAndLive at the last gradient.
func (l *engineGrad) Mass() float64 { return l.mass }

func newGrad(fleet core.Fleet, m core.CountModel, domains core.DomainSet, curves []faultcurve.Response) *hardeningGrad {
	g := &hardeningGrad{curves: curves, loo: engineGrad{e: core.NewEvaluator(),
		edges: make([][2]float64, len(fleet)), shocks: make([]float64, len(domains))}}
	if err := g.loo.q.Resolve(append(core.Fleet(nil), fleet...), m, append(core.DomainSet(nil), domains...)); err != nil {
		panic(fmt.Sprintf("optimize: engine rejected a validated hardening query: %v", err))
	}
	return g
}

func newHardeningGrad(p HardeningProblem) *hardeningGrad {
	g := newGrad(p.Fleet, p.Model, p.Domains, p.Curves)
	g.bf = make([]float64, len(p.Fleet))
	for i, node := range p.Fleet {
		g.bf[i] = byzFraction(node.Profile)
	}
	return g
}

// grad computes ∇f exactly from the engine's derivatives of SafeAndLive
// (core.Evaluator.Gradient): for node spend from node i's edges, sums of
// positive masses for an independent node, so no cancellation however
// small the derivative,
//
//	∂(SafeAndLive)/∂p_i = −faulty_i − bf_i · byz_i,
//
// and for shock spend ∂SafeAndLive/∂s_d. Both take one chain rule through
// the response curves q_k = curves[k].Prob(x_k): f = ln(U), U = 1 −
// SafeAndLive, so df/dx_k = −∂SafeAndLive/∂q_k · q_k'(x_k) / U.
func (g *hardeningGrad) grad(x, out []float64) {
	l := &g.loo
	for k, c := range g.curves {
		q := c.Prob(x[k])
		if g.bf == nil {
			l.q.Domains[k].ShockProb = q
		} else {
			l.q.Fleet[k].Profile = faultcurve.Profile{PCrash: q * (1 - g.bf[k]), PByz: q * g.bf[k]}
		}
	}
	l.mass = l.e.Gradient(&l.q, l.edges, l.shocks)
	u := math.Max(1-l.Mass(), unavailFloor)
	for k, c := range g.curves {
		var dSL float64
		if g.bf == nil {
			dSL = l.shocks[k]
		} else {
			// 0 − …, not −…: an empty boundary leaves dSL at +0, not −0.
			dSL = 0 - l.edges[k][0] - g.bf[k]*l.edges[k][1]
		}
		out[k] = -dSL * c.DProb(x[k]) / u
	}
}

// DomainHardeningProblem is the shock-hardening budget allocation: split
// Budget across the failure domains, where domain d at spend x_d has its
// common-cause shock probability reduced to Curves[d].Prob(x_d) — better
// generator testing, staged rollouts, an extra cooling loop. Node
// profiles are untouched; only the correlation structure is bought down.
type DomainHardeningProblem struct {
	Fleet   core.Fleet
	Model   core.CountModel
	Domains core.DomainSet
	// Curves maps spend to shock probability per domain. len ==
	// len(Domains).
	Curves []faultcurve.Response
	// Budget is the total spend to allocate.
	Budget float64
	// MaxPerDomain caps any one domain's spend; <= 0 means Budget.
	MaxPerDomain float64
}

// Validate rejects malformed problems.
func (p DomainHardeningProblem) Validate() error {
	return validate("domain hardening", "domain", p.Fleet, p.Model, p.Domains, p.Curves, len(p.Domains), p.Budget)
}

// Polytope returns the feasible region: the budget knapsack over domains.
func (p DomainHardeningProblem) Polytope() Knapsack {
	return knapsack(len(p.Domains), capPer(p.MaxPerDomain, p.Budget), p.Budget)
}

// domainsAt materializes the hardened domain layout at spend vector x.
func (p DomainHardeningProblem) domainsAt(x []float64) core.DomainSet {
	ds := make(core.DomainSet, len(p.Domains))
	copy(ds, p.Domains)
	for i := range ds {
		ds[i].ShockProb = p.Curves[i].Prob(x[i])
	}
	return ds
}

// Eval runs the exact correlated engine at x.
func (p DomainHardeningProblem) Eval(x []float64) core.Result {
	res, err := core.AnalyzeDomains(p.Fleet, p.Model, p.domainsAt(x))
	if err != nil {
		panic(fmt.Sprintf("optimize: engine rejected a validated domain-hardening query: %v", err))
	}
	return res
}

// Objective returns f(x) = ln(1 - SafeAndLive(x)) with its analytic
// gradient over shock spend (hardeningGrad).
func (p DomainHardeningProblem) Objective() Objective {
	return FuncObjective{F: func(x []float64) float64 { return logUnavail(p.Eval(x)) }, G: newGrad(p.Fleet, p.Model, p.Domains, p.Curves).grad}
}
