package optimize

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
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

// hardenedProfile is the profile of a node whose response curve sits at
// the given spend, preserving the base crash/Byzantine split.
func hardenedProfile(base faultcurve.Profile, curve faultcurve.Response, spend float64) faultcurve.Profile {
	p := curve.Prob(spend)
	bf := byzFraction(base)
	return faultcurve.Profile{PCrash: p * (1 - bf), PByz: p * bf}
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
	if len(p.Fleet) == 0 {
		return fmt.Errorf("optimize: hardening needs a non-empty fleet")
	}
	if p.Model == nil || p.Model.N() != len(p.Fleet) {
		return fmt.Errorf("optimize: hardening model/fleet size mismatch")
	}
	if err := p.Fleet.Validate(); err != nil {
		return err
	}
	if err := p.Domains.Validate(p.Fleet); err != nil {
		return err
	}
	if len(p.Curves) != len(p.Fleet) {
		return fmt.Errorf("optimize: %d response curves for %d nodes", len(p.Curves), len(p.Fleet))
	}
	for i, c := range p.Curves {
		if c == nil {
			return fmt.Errorf("optimize: node %d has no response curve", i)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("optimize: node %d: %w", i, err)
		}
	}
	if math.IsNaN(p.Budget) || math.IsInf(p.Budget, 0) || p.Budget <= 0 {
		return fmt.Errorf("optimize: budget must be finite and > 0, got %v", p.Budget)
	}
	return nil
}

func (p HardeningProblem) cap() float64 {
	if p.MaxPerNode > 0 {
		return math.Min(p.MaxPerNode, p.Budget)
	}
	return p.Budget
}

// Polytope returns the feasible region: the budget knapsack
// { 0 <= x_i <= cap, Σ x_i <= Budget } with unit costs.
func (p HardeningProblem) Polytope() Knapsack {
	n := len(p.Fleet)
	lo := make([]float64, n)
	hi := make([]float64, n)
	c := p.cap()
	for i := range hi {
		hi[i] = c
	}
	return Knapsack{Lo: lo, Hi: hi, Budget: p.Budget}
}

// fleetAt materializes the hardened fleet at spend vector x.
func (p HardeningProblem) fleetAt(x []float64) core.Fleet {
	fleet := make(core.Fleet, len(p.Fleet))
	copy(fleet, p.Fleet)
	for i := range fleet {
		fleet[i].Profile = hardenedProfile(p.Fleet[i].Profile, p.Curves[i], x[i])
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

// UsesCentralDifferences reports whether the objective's gradient falls
// back to central differences (two engine runs per coordinate) instead
// of the analytic leave-one-out gradient (one region fold plus an O(κ)
// deflation per coordinate): true exactly when the fleet has a populated
// domain layout. The serving layer's work estimates dispatch on this, so
// it is the single home of the condition.
func (p HardeningProblem) UsesCentralDifferences() bool {
	if len(p.Domains) == 0 {
		return false
	}
	for _, n := range p.Fleet {
		if n.Domain != "" {
			return true
		}
	}
	return false
}

// Objective returns the minimized smooth function f(x) = ln(1 -
// SafeAndLive(x)). For independent fleets (no populated domains) the
// gradient is analytic via a leave-one-out DP state the returned objective
// owns (see hardeningGrad); with domains it falls back to central
// differences, whose probes the response curves clamp safely.
func (p HardeningProblem) Objective() Objective {
	value := func(x []float64) float64 { return logUnavail(p.Eval(x)) }
	if p.UsesCentralDifferences() {
		// Correlated layout: every engine call runs through one dedicated
		// evaluator whose domain block cache carries across the solve. A
		// central-difference probe perturbs one node, so only that node's
		// domain rebuilds its two small block DPs — the rest of the fleet
		// is answered from cached rest tables; line-search steps move all
		// nodes but still convolve cached blocks.
		e := core.NewEvaluator()
		fleet := make(core.Fleet, len(p.Fleet))
		return FuncObjective{F: func(x []float64) float64 {
			copy(fleet, p.Fleet)
			for i := range fleet {
				fleet[i].Profile = hardenedProfile(p.Fleet[i].Profile, p.Curves[i], x[i])
			}
			res, err := e.AnalyzeDomains(fleet, p.Model, p.Domains)
			if err != nil {
				panic(fmt.Sprintf("optimize: engine rejected a validated hardening query: %v", err))
			}
			return logUnavail(res)
		}}
	}
	return FuncObjective{F: value, G: newHardeningGrad(p).grad}
}

// hardeningGrad is the analytic gradient of an independent fleet's
// objective together with everything it reuses from call to call. One is
// built per Objective, so a solve — whose gradient calls are sequential —
// pays for its workspaces once and allocates nothing per call. Not safe
// for concurrent use.
type hardeningGrad struct {
	curves []faultcurve.Response
	bf     []float64       // per-node Byzantine share of the fault mass
	nodes  []dist.TriState // the hardened fleet at the current x
	loo    dist.RegionLeaveOneOut
	// ok is the model's safe-and-live region {b <= β, c + b <= κ}.
	ok dist.Region
}

func newHardeningGrad(p HardeningProblem) *hardeningGrad {
	n := len(p.Fleet)
	safe, live := p.Model.Regions()
	g := &hardeningGrad{
		curves: p.Curves,
		bf:     make([]float64, n),
		nodes:  make([]dist.TriState, n),
		ok:     safe.Intersect(live),
	}
	for i, node := range p.Fleet {
		g.bf[i] = byzFraction(node.Profile)
	}
	return g
}

// grad computes ∇f exactly for independent fleets. The count distribution
// is linear in node i's fault mass p_i, so the derivative of SafeAndLive
// is what J₋ᵢ, the other nodes' distribution, puts on the safe-and-live
// region's two edges (DESIGN.md "Count regions"):
//
//	∂(SafeAndLive)/∂p_i = −Σ_{faulty edge} J₋ᵢ − bf_i · Σ_{Byzantine edge} J₋ᵢ,
//
// sums of positive masses, so no cancellation however small the derivative.
// One fold of the hardened fleet into the region's table gives U, bit for
// bit Eval's, and an O(κ) deflation per node the edges
// (dist.RegionLeaveOneOut): O(N·(β+1)·(κ+1)) per gradient.
func (g *hardeningGrad) grad(x, out []float64) {
	for i, c := range g.curves {
		p := c.Prob(x[i])
		g.nodes[i] = dist.TriState{PCrash: p * (1 - g.bf[i]), PByz: p * g.bf[i]}
	}
	g.loo.Reset(g.nodes, g.ok)
	u := math.Max(1-g.loo.Mass(), unavailFloor)
	for i := range g.nodes {
		faulty, byz := g.loo.Edges(i)
		// 0 − …, not −…: an empty boundary leaves dSL at +0, not −0.
		dSL := 0 - faulty - g.bf[i]*byz
		// f = ln(U), U = 1 - SafeAndLive: df/dx_i = -dSL/dp · p'(x_i) / U.
		out[i] = -dSL * g.curves[i].DProb(x[i]) / u
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
	if len(p.Fleet) == 0 {
		return fmt.Errorf("optimize: domain hardening needs a non-empty fleet")
	}
	if p.Model == nil || p.Model.N() != len(p.Fleet) {
		return fmt.Errorf("optimize: domain hardening model/fleet size mismatch")
	}
	if err := p.Fleet.Validate(); err != nil {
		return err
	}
	if len(p.Domains) == 0 {
		return fmt.Errorf("optimize: domain hardening needs at least one domain")
	}
	if err := p.Domains.Validate(p.Fleet); err != nil {
		return err
	}
	if len(p.Curves) != len(p.Domains) {
		return fmt.Errorf("optimize: %d response curves for %d domains", len(p.Curves), len(p.Domains))
	}
	for i, c := range p.Curves {
		if c == nil {
			return fmt.Errorf("optimize: domain %d has no response curve", i)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("optimize: domain %d: %w", i, err)
		}
	}
	if math.IsNaN(p.Budget) || math.IsInf(p.Budget, 0) || p.Budget <= 0 {
		return fmt.Errorf("optimize: budget must be finite and > 0, got %v", p.Budget)
	}
	return nil
}

func (p DomainHardeningProblem) cap() float64 {
	if p.MaxPerDomain > 0 {
		return math.Min(p.MaxPerDomain, p.Budget)
	}
	return p.Budget
}

// Polytope returns the feasible region: the budget knapsack over domains.
func (p DomainHardeningProblem) Polytope() Knapsack {
	d := len(p.Domains)
	lo := make([]float64, d)
	hi := make([]float64, d)
	c := p.cap()
	for i := range hi {
		hi[i] = c
	}
	return Knapsack{Lo: lo, Hi: hi, Budget: p.Budget}
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

// Objective returns f(x) = ln(1 - SafeAndLive(x)) with central-difference
// gradients: the shock probability enters the mixture engine non-linearly
// per domain, so the leave-one-out trick does not apply. All engine calls
// share one dedicated evaluator: a spend vector only moves shock
// probabilities — mixture weights, never block DPs — so after the first
// evaluation builds the per-domain blocks and rest tables, every gradient
// probe and line-search step is answered with zero joint rebuilds
// (pinned by TestDomainHardeningBlockReuse).
func (p DomainHardeningProblem) Objective() Objective {
	e := core.NewEvaluator()
	ds := make(core.DomainSet, len(p.Domains))
	return FuncObjective{F: func(x []float64) float64 {
		copy(ds, p.Domains)
		for i := range ds {
			ds[i].ShockProb = p.Curves[i].Prob(x[i])
		}
		res, err := e.AnalyzeDomains(p.Fleet, p.Model, ds)
		if err != nil {
			panic(fmt.Sprintf("optimize: engine rejected a validated domain-hardening query: %v", err))
		}
		return logUnavail(res)
	}}
}
