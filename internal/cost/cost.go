package cost

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// Tier is one hardware/pricing class: dedicated instances, spot instances,
// refurbished servers, and so on.
type Tier struct {
	Name string
	// PricePerHour is the unit price.
	PricePerHour float64
	// Profile is the per-node fault probability over the mission window.
	Profile faultcurve.Profile
	// CarbonPerHour optionally tracks embodied+operational carbon; the
	// optimizer can minimise it instead of dollars.
	CarbonPerHour float64
}

// Spec is a node count drawn from one tier.
type Spec struct {
	Tier  Tier
	Count int
}

// Plan is a candidate deployment: its fleet composition, reliability and
// price.
type Plan struct {
	Specs  []Spec
	Result core.Result
	Model  core.Raft
}

// Fleet materialises the plan's node list (tier order, reliable tiers
// first as given).
func (p Plan) Fleet() core.Fleet {
	var fleet core.Fleet
	for _, s := range p.Specs {
		for i := 0; i < s.Count; i++ {
			fleet = append(fleet, core.Node{
				Name:        fmt.Sprintf("%s-%d", s.Tier.Name, i),
				Profile:     s.Tier.Profile,
				CostPerHour: s.Tier.PricePerHour,
			})
		}
	}
	return fleet
}

// N returns the total node count.
func (p Plan) N() int {
	n := 0
	for _, s := range p.Specs {
		n += s.Count
	}
	return n
}

// PricePerHour returns the plan's total price.
func (p Plan) PricePerHour() float64 {
	var c float64
	for _, s := range p.Specs {
		c += float64(s.Count) * s.Tier.PricePerHour
	}
	return c
}

// CarbonPerHour returns the plan's total carbon proxy.
func (p Plan) CarbonPerHour() float64 {
	var c float64
	for _, s := range p.Specs {
		c += float64(s.Count) * s.Tier.CarbonPerHour
	}
	return c
}

// String summarises the plan.
func (p Plan) String() string {
	s := ""
	for i, spec := range p.Specs {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%dx%s", spec.Count, spec.Tier.Name)
	}
	return fmt.Sprintf("%s ($%.3f/h, S&L %s)", s,
		p.PricePerHour(), dist.FormatPercent(p.Result.SafeAndLive, 2))
}

// Objective selects what the optimizer minimises.
type Objective int

// Objectives.
const (
	MinimizePrice Objective = iota
	MinimizeCarbon
)

// Optimizer searches Raft deployments (majority quorums) across tiers.
type Optimizer struct {
	Tiers []Tier
	// MaxNodes bounds the search (odd sizes only make sense for majority
	// Raft but even sizes are searched too for completeness).
	MaxNodes int
	// Objective defaults to MinimizePrice.
	Objective Objective
}

// unitCost returns the tier's per-node cost under the optimizer's
// objective.
func (o Optimizer) unitCost(t Tier) float64 {
	if o.Objective == MinimizeCarbon {
		return t.CarbonPerHour
	}
	return t.PricePerHour
}

// candidate is one fleet of the search space: na nodes of tier a plus,
// when nb > 0, nb nodes of tier b (indices into Optimizer.Tiers), with
// its cost under the optimizer's objective. It is 24 bytes, so the
// largest search inputcheck admits (1.57 M candidates at 1024 nodes) is
// one ~38 MB slice rather than a []Spec per candidate.
type candidate struct {
	a, b   int32
	na, nb int32
	cost   float64
}

// candidates enumerates every single-tier fleet of 1..MaxNodes nodes and,
// if mixed, every two-tier split of at most MaxNodes, tier by tier.
func (o Optimizer) candidates(mixed bool) []candidate {
	var out []candidate
	n := o.MaxNodes
	for i, a := range o.Tiers {
		ua := o.unitCost(a)
		for na := 1; na <= n; na++ {
			out = append(out, candidate{a: int32(i), na: int32(na), cost: float64(na) * ua})
		}
		if !mixed {
			continue
		}
		for j := i + 1; j < len(o.Tiers); j++ {
			ub := o.unitCost(o.Tiers[j])
			for na := 1; na < n; na++ {
				for nb := 1; na+nb <= n; nb++ {
					out = append(out, candidate{
						a: int32(i), b: int32(j), na: int32(na), nb: int32(nb),
						cost: float64(na)*ua + float64(nb)*ub,
					})
				}
			}
		}
	}
	return out
}

// specs materializes a candidate's fleet composition.
func (o Optimizer) specs(c candidate) []Spec {
	specs := []Spec{{Tier: o.Tiers[c.a], Count: int(c.na)}}
	if c.nb > 0 {
		specs = append(specs, Spec{Tier: o.Tiers[c.b], Count: int(c.nb)})
	}
	return specs
}

// cheapest is the one search: it evaluates the candidates cheapest first
// and returns the first whose safe-and-live probability reaches target —
// one exact engine run per candidate ordered before the answer. The sort
// is stable, so among equally cheap feasible fleets the earliest
// enumerated wins, which is the plan an exhaustive scan that replaces its
// incumbent only on a strictly lower cost ends on.
func (o Optimizer) cheapest(cands []candidate, target float64) (Plan, bool) {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	for _, c := range cands {
		if plan, ok := o.evalPlan(o.specs(c), target); ok {
			return plan, true
		}
	}
	return Plan{}, false
}

// CheapestSingleTier returns the cheapest single-tier majority-Raft fleet
// whose safe-and-live probability reaches targetNines, or an error if no
// fleet within MaxNodes does.
func (o Optimizer) CheapestSingleTier(targetNines float64) (Plan, error) {
	plan, ok := o.cheapest(o.candidates(false), dist.FromNines(targetNines))
	if !ok {
		return Plan{}, fmt.Errorf("cost: no single-tier fleet of <= %d nodes reaches %.2f nines", o.MaxNodes, targetNines)
	}
	return plan, nil
}

// CheapestMixed returns the cheapest plan meeting targetNines among all
// single-tier fleets and all two-tier mixes up to MaxNodes. Mixed fleets
// are the fault-curve-aware frontier the paper gestures at: a few
// reliable anchors plus cheap bulk.
func (o Optimizer) CheapestMixed(targetNines float64) (Plan, error) {
	plan, ok := o.cheapest(o.candidates(true), dist.FromNines(targetNines))
	if !ok {
		return Plan{}, fmt.Errorf("cost: no fleet of <= %d nodes reaches %.2f nines", o.MaxNodes, targetNines)
	}
	return plan, nil
}

func (o Optimizer) evalPlan(specs []Spec, target float64) (Plan, bool) {
	plan := Plan{Specs: specs}
	n := plan.N()
	if n == 0 {
		return Plan{}, false
	}
	model := core.NewRaft(n)
	res, err := core.Analyze(plan.Fleet(), model)
	if err != nil {
		return Plan{}, false
	}
	plan.Result = res
	plan.Model = model
	return plan, res.SafeAndLive >= target
}

// FrontierPoint is one fleet size of a single tier with the reliability
// and price it achieves.
type FrontierPoint struct {
	N            int
	Nines        float64
	PricePerHour float64
}

// Frontier returns a FrontierPoint for each node count 1..MaxNodes of one
// tier — the sweep behind the paper's "larger networks of less reliable
// nodes can help" plot.
func (o Optimizer) Frontier(tier Tier) []FrontierPoint {
	pts := make([]FrontierPoint, 0, o.MaxNodes)
	for n := 1; n <= o.MaxNodes; n++ {
		fleet := Plan{Specs: []Spec{{Tier: tier, Count: n}}}.Fleet()
		res := core.MustAnalyze(fleet, core.NewRaft(n))
		pts = append(pts, FrontierPoint{
			N:            n,
			Nines:        dist.Nines(res.SafeAndLive),
			PricePerHour: float64(n) * tier.PricePerHour,
		})
	}
	return pts
}

// SortTiersByPrice orders tiers cheapest-first (stable), a convenience for
// reports.
func SortTiersByPrice(tiers []Tier) {
	sort.SliceStable(tiers, func(i, j int) bool {
		return tiers[i].PricePerHour < tiers[j].PricePerHour
	})
}
