package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
)

// This file is the correlated-failure engine: exact safety/liveness
// analysis when nodes share named failure domains (racks, zones, rollout
// cohorts), each carrying an independent common-cause shock. It is the
// scenario class the paper calls out as the most-violated assumption of
// deployed consensus — node failures are not independent — made exact by
// conditioning: given each domain's shock outcome, node faults ARE
// independent, so every conditional analysis reuses the joint trinomial DP.
//
// Two exact engines, identical answers, different complexity envelopes:
//
//   - AnalyzeDomainsConditioned enumerates the 2^D shock subsets and runs
//     one O(N^3) DP per subset: O(2^D · N^3). Best for few domains.
//   - AnalyzeDomainsMixture builds each domain's count distribution as a
//     two-component mixture (shock / no shock) of block DPs and convolves
//     the independent blocks together: roughly O(N^2 · K^2 · D) for D
//     domains of K nodes — best for many small domains, no 2^D factor.
//
// AnalyzeDomains picks whichever estimate is cheaper; both are exact, so
// the choice is invisible to callers.

// DomainSet is the failure-domain layout of a fleet: the named domains
// that Node.Domain references may resolve to. Order is irrelevant to every
// probability; an empty set means all nodes fail independently.
type DomainSet []faultcurve.Domain

// Validate checks the domain definitions and that every node's membership
// resolves. With an empty set it allocates nothing.
func (ds DomainSet) Validate(fleet Fleet) error {
	var l domainLayout
	return l.resolve(fleet, ds)
}

// domainLayout is a fleet's failure-domain layout resolved from names to
// node indices. resolve is the only place domain definitions are checked
// and memberships looked up — DomainSet.Validate, the query fingerprint,
// the work estimate, every domain engine and ResolveDomains go through it —
// so a layout is accepted or rejected identically, in the same words (they
// are wire-visible in the service's 400 bodies), whichever door it came in
// by. The zero value is ready; a long-lived layout (the Evaluator's) reuses
// its scratch and resolves without allocating.
type domainLayout struct {
	byName map[string]int
	indep  []int   // undomained node indices, fleet order
	blocks [][]int // member node indices per domain, DomainSet order
	act    []int   // indices of the populated domains, DomainSet order
}

// resolve validates domains against fleet and fills the layout. With an
// empty set — the serving layer's common query — it only checks that no
// node names a domain: no name index, and indep is left empty rather than
// listing every node, so a throwaway layout costs no allocation. Callers
// that index nodes take their domain-free path when len(domains) == 0.
func (l *domainLayout) resolve(fleet Fleet, domains DomainSet) error {
	l.indep, l.act = l.indep[:0], l.act[:0]
	l.blocks = grow(l.blocks, len(domains))
	if len(domains) > 0 && l.byName == nil {
		l.byName = make(map[string]int, len(domains))
	}
	clear(l.byName)
	for i, d := range domains {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("core: domain %d: %w", i, err)
		}
		if _, dup := l.byName[d.Name]; dup {
			return fmt.Errorf("core: duplicate domain name %q", d.Name)
		}
		l.byName[d.Name] = i
		l.blocks[i] = l.blocks[i][:0]
	}
	for i, n := range fleet {
		if n.Domain == "" {
			if len(domains) > 0 {
				l.indep = append(l.indep, i)
			}
			continue
		}
		di, ok := l.byName[n.Domain]
		if !ok {
			return fmt.Errorf("core: node %d (%s) references undefined domain %q", i, n.Name, n.Domain)
		}
		l.blocks[di] = append(l.blocks[di], i)
	}
	for di, b := range l.blocks {
		if len(b) > 0 {
			l.act = append(l.act, di)
		}
	}
	return nil
}

// resolveQuery is the validation every domain-aware entry point runs: the
// model fits the fleet, the fleet's profiles are valid, the layout resolves.
func (l *domainLayout) resolveQuery(fleet Fleet, m CountModel, domains DomainSet) error {
	if len(fleet) != m.N() {
		return fmt.Errorf("core: fleet size %d != model N %d", len(fleet), m.N())
	}
	if err := fleet.Validate(); err != nil {
		return err
	}
	return l.resolve(fleet, domains)
}

// members returns, for each of n nodes, the index of its domain in the
// DomainSet, or -1 for independent nodes.
func (l *domainLayout) members(n int) []int {
	member := make([]int, n)
	for i := range member {
		member[i] = -1
	}
	for di, b := range l.blocks {
		for _, i := range b {
			member[i] = di
		}
	}
	return member
}

// ResolveDomains validates the layout and returns each node's domain as an
// index into domains, -1 for independent nodes — the membership encoding of
// the sampler kernel (montecarlo.Draws) and of positional cache keys.
func ResolveDomains(fleet Fleet, domains DomainSet) ([]int, error) {
	var l domainLayout
	if err := l.resolve(fleet, domains); err != nil {
		return nil, err
	}
	return l.members(len(fleet)), nil
}

// blockTriStates extracts the kernel representation of the given node
// indices, optionally elevated by a shock.
func blockTriStates(fleet Fleet, idxs []int, elevate *faultcurve.Domain) []dist.TriState {
	out := make([]dist.TriState, len(idxs))
	for j, i := range idxs {
		p := fleet[i].Profile
		if elevate != nil {
			p = elevate.Elevate(p)
		}
		out[j] = p.TriState()
	}
	return out
}

// defaultEvaluators backs the package-level entry points: every call
// borrows a pooled Evaluator, so package callers (including the serving
// layer's default AnalyzeFunc) share warm workspaces and the correlated-
// domain block cache instead of allocating fresh state per query.
var defaultEvaluators = NewEvaluatorPool()

// AnalyzeDomains computes the exact Result of a fleet whose nodes belong
// to correlated failure domains, dispatching to whichever exact engine —
// 2^D shock-subset conditioning or the per-domain mixture DP — the shared
// plan picks for this layout. With no domains (or no members) it is
// exactly Analyze. It runs on a pooled Evaluator, so repeated related
// queries hit the domain block cache and allocate nothing in steady state
// (pinned by TestAnalyzeDomainsZeroAllocs).
func AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	return defaultEvaluators.AnalyzeDomains(fleet, m, domains)
}

// maxConditionedDomains bounds the 2^D shock-subset enumeration.
const maxConditionedDomains = 24

// domainEngine names the exact engine a domain query dispatches to.
type domainEngine int

const (
	engineIndependent domainEngine = iota
	engineConditioned
	engineMixture
)

// conditionedBias is the dispatcher's preference for the mixture engine:
// conditioning must be more than this factor cheaper before it is chosen.
// The two engines are exact and interchangeable, but only the mixture path
// is incremental (block cache + rest tables), so a modest constant-factor
// concession on cold-query cost buys order-of-magnitude wins on the
// sweeps and gradient probes that dominate real query streams.
const conditionedBias = 4

// chooseDomainEngine is the single source of truth for domain-engine
// dispatch: both AnalyzeDomains (package and evaluator) and
// DomainsWorkEstimate derive from it, so the cost a query is admitted
// under is always the cost of the engine that actually runs (pinned by
// TestDomainsEstimateMatchesDispatch). It returns the chosen engine and
// its estimated work in DP cell updates.
func chooseDomainEngine(n int, blocks [][]int) (domainEngine, float64) {
	populated := 0
	for _, b := range blocks {
		if len(b) > 0 {
			populated++
		}
	}
	if populated == 0 {
		return engineIndependent, cube(n)
	}
	cw := conditionedWork(n, populated)
	mw := mixtureWork(n, blocks)
	if mw <= conditionedBias*cw {
		return engineMixture, mw
	}
	return engineConditioned, cw
}

// conditionedWork estimates AnalyzeDomainsConditioned's cost in DP cell
// updates: one O(N^3) joint DP per shock subset of the populated domains.
func conditionedWork(n, populatedDomains int) float64 {
	if populatedDomains > maxConditionedDomains {
		return math.Inf(1)
	}
	return math.Ldexp(float64(n)*float64(n)*float64(n), populatedDomains)
}

// mixtureWork estimates AnalyzeDomainsMixture's cost in cell updates: two
// block DPs per domain plus the running convolution, whose step for a
// block of k nodes against a prefix of m nodes touches O(m^2 · k^2) cell
// pairs.
func mixtureWork(n int, blocks [][]int) float64 {
	indepCount := n
	for _, b := range blocks {
		indepCount -= len(b)
	}
	var work float64
	prefix := indepCount
	work += cube(indepCount)
	for _, b := range blocks {
		k := len(b)
		if k == 0 {
			continue
		}
		work += 2 * cube(k)
		work += square(prefix+1) * square(k+1)
		prefix += k
	}
	return work
}

func cube(n int) float64   { f := float64(n); return f * f * f }
func square(n int) float64 { f := float64(n); return f * f }

// DomainsWorkEstimate returns the estimated engine cost of AnalyzeDomains
// for this query in DP cell updates — the unit the serving layer's work
// bounds are denominated in. A domain-free query is priced at n^3, the
// joint table's cost: an upper bound on its region pass, O(n·(β+1)·(κ+1)),
// kept so that admission, tail dispatch and the wire work field price
// queries as before. A layout the resolver rejects never reaches an engine
// and is priced as domain-free.
func DomainsWorkEstimate(fleet Fleet, domains DomainSet) float64 {
	var l domainLayout
	if l.resolve(fleet, domains) != nil {
		return cube(len(fleet))
	}
	_, work := chooseDomainEngine(len(fleet), l.blocks)
	return work
}

// AnalyzeDomainsConditioned is the 2^D exact engine: it enumerates every
// subset S of the populated domains, weighs it by Π s_d (d ∈ S) · Π (1-s_d)
// (d ∉ S), elevates the members of the shocked domains, and runs the
// independent joint DP per condition. Exact for D ≤ 24 populated domains.
// Like Analyze it is the evaluator's engine on a throwaway Evaluator; the
// conditioned engine reads and fills none of the block, rest-table or
// result caches, which is what makes it the cache-free referee of the
// mixture engine.
func AnalyzeDomainsConditioned(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	var e Evaluator
	if err := e.dom.resolveQuery(fleet, m, domains); err != nil {
		return Result{}, err
	}
	return e.analyzeDomainsConditioned(fleet, m, domains)
}

// AnalyzeDomainsMixture is the per-domain mixture-DP exact engine. Each
// domain's (#crashed, #Byzantine) block distribution is the shock-weighted
// mixture of its base and elevated joint DPs; blocks (and the independent
// remainder) are then convolved — counts of independent groups add. No 2^D
// factor, so it scales to many domains. It allocates per call and never
// caches: it is the straight-line reference oracle (and the honest
// pre-cache baseline in benchmarks) for the evaluator's cached engine,
// whose cold path performs these exact operations in this exact order.
func AnalyzeDomainsMixture(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	var l domainLayout
	if err := l.resolveQuery(fleet, m, domains); err != nil {
		return Result{}, err
	}
	if len(domains) == 0 {
		return Analyze(fleet, m)
	}
	joint := dist.NewJointCrashByz(blockTriStates(fleet, l.indep, nil))
	for _, di := range l.act {
		d := domains[di]
		base := dist.NewJointCrashByz(blockTriStates(fleet, l.blocks[di], nil))
		elev := dist.NewJointCrashByz(blockTriStates(fleet, l.blocks[di], &d))
		s := dist.Clamp01(d.ShockProb)
		mixed, err := dist.MixJointCrashByz(base, elev, 1-s, s)
		if err != nil {
			return Result{}, err
		}
		joint = dist.ConvolveJointCrashByz(joint, mixed)
	}
	return resultFromJointModel(joint, m), nil
}

// AnalyzeDomainsMonteCarlo estimates the domain-aware Result by sampling
// in the same two stages as the exact conditioning: each domain's shock is
// drawn first, then every node independently from its base — or, if its
// domain shocked, elevated — profile. The draws are the sampler kernel's
// (montecarlo.Draws, untilted, on the stream seed selects); this
// counts the three predicates over them. It is the validation oracle for
// the exact domain engines.
func AnalyzeDomainsMonteCarlo(fleet Fleet, m CountModel, domains DomainSet, samples int, seed int64) (MCResult, error) {
	var l domainLayout
	if err := l.resolveQuery(fleet, m, domains); err != nil {
		return MCResult{}, err
	}
	if samples <= 0 {
		return MCResult{}, fmt.Errorf("core: need samples > 0, got %d", samples)
	}
	var draws montecarlo.Draws
	if err := draws.Reset(fleet.Profiles(), l.members(len(fleet)), domains, montecarlo.TriTilt{}); err != nil {
		return MCResult{}, err
	}
	stream := montecarlo.NewStream(seed)
	var nSafe, nLive, nBoth int
	for s := 0; s < samples; s++ {
		crashed, byz := draws.Next(stream)
		sOK := m.Safe(crashed, byz)
		lOK := m.Live(crashed, byz)
		if sOK {
			nSafe++
		}
		if lOK {
			nLive++
		}
		if sOK && lOK {
			nBoth++
		}
	}
	out := MCResult{
		Result: Result{
			Safe:        float64(nSafe) / float64(samples),
			Live:        float64(nLive) / float64(samples),
			SafeAndLive: float64(nBoth) / float64(samples),
		},
		Samples: samples,
	}
	out.SafeLo, out.SafeHi = dist.WilsonInterval(nSafe, samples, 1.96)
	out.LiveLo, out.LiveHi = dist.WilsonInterval(nLive, samples, 1.96)
	out.BothLo, out.BothHi = dist.WilsonInterval(nBoth, samples, 1.96)
	return out, nil
}
