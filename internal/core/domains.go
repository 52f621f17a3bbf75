package core

import (
	"fmt"
	"sync/atomic"

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
// independent.
//
// One engine answers every populated layout (domaincache.go): each
// domain's count distribution is the shock-weighted mixture of its base
// and elevated members' folds, and a mixture is linear, so the independent
// remainder's tables fold through the domains one at a time. Every table
// is truncated to the model's three count regions (dist.RegionPass), so
// for Raft and textbook PBFT the whole walk is a handful of 1-D rows.
// AnalyzeDomainsConditioned, the 2^D shock-subset enumeration with one
// region pass per subset, is its cache-free referee, and no query
// dispatches to it.

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
// by. The zero value is ready; a long-lived layout (a reused Query's) reuses
// its scratch and resolves without allocating.
type domainLayout struct {
	byName map[string]int
	indep  []int   // undomained node indices, fleet order
	blocks [][]int // member node indices per domain, DomainSet order
	act    []int   // indices of the populated domains, DomainSet order
}

// layoutResolves counts resolve calls, process-wide. A served analyze
// request resolves its query once (Query.Resolve) and every later stage
// reads that layout; TestOneResolvePerRequest pins it by diffing this
// around a request stream. Nothing else reads it.
var layoutResolves atomic.Int64

// resolve validates domains against fleet and fills the layout. With an
// empty set — the serving layer's common query — it only checks that no
// node names a domain: no name index, and indep is left empty rather than
// listing every node, so a throwaway layout costs no allocation. Callers
// that index nodes take their domain-free path when len(domains) == 0.
func (l *domainLayout) resolve(fleet Fleet, domains DomainSet) error {
	layoutResolves.Add(1)
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

// checkSize refuses a model that does not fit the fleet.
func checkSize(fleet Fleet, m CountModel) error {
	if len(fleet) != m.N() {
		return fmt.Errorf("core: fleet size %d != model N %d", len(fleet), m.N())
	}
	return nil
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

// defaultEvaluators backs the package-level entry points: every call
// borrows a pooled Evaluator, so package callers (the serving layer's
// default AnalyzeFunc and the optimizer's objectives) share warm
// workspaces and the correlated-domain rest tables instead of allocating
// fresh state per query.
var defaultEvaluators = NewEvaluatorPool()

// AnalyzeDomains computes the exact Result of a fleet whose nodes belong
// to correlated failure domains on the region-table domain engine. With no
// domains (or no members) it is exactly Analyze. It runs on a pooled
// Evaluator, so repeated related queries hit the domain rest tables and
// allocate nothing in steady state (pinned by TestAnalyzeDomainsZeroAllocs).
func AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	return defaultEvaluators.AnalyzeDomains(fleet, m, domains)
}

// maxConditionedDomains bounds the 2^D shock-subset enumeration.
const maxConditionedDomains = 24

// DomainsWorkEstimate returns the estimated engine cost of AnalyzeDomains
// for this query in cell updates: Query.Work without a Query. A layout the
// resolver rejects never reaches an engine and is priced as domain-free.
func DomainsWorkEstimate(fleet Fleet, m CountModel, domains DomainSet) float64 {
	var l domainLayout
	_ = l.resolve(fleet, domains) // a rejected layout is left empty: priced as domain-free
	return l.price(len(fleet), m)
}

// price is the work estimate of the resolved layout over n nodes under m
// (Query.Work).
func (l *domainLayout) price(n int, m CountModel) float64 {
	if len(l.act) == 0 {
		return float64(n) * float64(n) * float64(n)
	}
	return l.work(n, modelRegions(m))
}

// work bounds the domain engine's cold walk of the resolved layout over n
// nodes, region by region. The formula prices the convolution engine the
// fold-through replaced, and is kept so that admission, /v1/tail's auto
// dispatch and the wire work fields do not move (ROADMAP item 20
// re-prices it): with G(k) a k-node group's reachable cells
// (dist.Region.Cells) and c = G(n) the whole table, every node folds into
// its blocks at G(k) cells a node, and each domain mixes G(k) cells and
// takes three convolutions of c output cells, each reading at most 2·G of
// the smaller operand, and a rest table of c cells, each reading at most
// G(n − k). It stays above the fold-through's c·(m + 4·Σk + 6·D) cell
// updates (TestDomainsEstimateMatchesDispatch); a warm query's fast path,
// one pass through a domain and a dot product, is far below it.
func (l *domainLayout) work(n int, regions [3]dist.Region) float64 {
	var work float64
	for _, r := range regions {
		g := func(k int) float64 { return float64(r.Cells(n, k)) }
		c, m := g(n), len(l.indep)
		work += float64(m) * g(m)
		for _, di := range l.act {
			k := len(l.blocks[di])
			s := n - m - k
			work += (2*float64(k)+1)*g(k) +
				c*(4+2*g(min(m, k))+2*g(min(k, s))+2*g(min(m, s))+g(n-k))
			m += k
		}
	}
	return work
}

// AnalyzeDomainsConditioned is the 2^D exact engine: it enumerates every
// subset S of the populated domains, weighs it by Π s_d (d ∈ S) · Π (1-s_d)
// (d ∉ S), elevates the members of the shocked domains, and runs one region
// pass per condition. Exact for D ≤ 24 populated domains. It shares no code
// with the domain engine beyond the region fold and reads and fills no
// cache, which is what makes it the engine's referee; nothing serves from
// it.
func AnalyzeDomainsConditioned(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	var q Query
	if err := q.resolveValid(fleet, m, domains); err != nil {
		return Result{}, err
	}
	d := len(q.layout.act)
	if d > maxConditionedDomains {
		return Result{}, fmt.Errorf("core: %d populated domains exceed the 2^D engine's maximum %d", d, maxConditionedDomains)
	}
	regions := modelRegions(m)
	tri := make([]dist.TriState, len(fleet))
	var pass dist.RegionPass
	var sums [3]dist.KahanSum
	for mask := 0; mask < 1<<d; mask++ {
		weight := 1.0
		for bit, di := range q.layout.act {
			s := dist.Clamp01(domains[di].ShockProb)
			if mask&(1<<bit) != 0 {
				weight *= s
			} else {
				weight *= 1 - s
			}
		}
		if weight == 0 {
			continue
		}
		for i, n := range fleet {
			tri[i] = n.Profile.TriState()
		}
		for bit, di := range q.layout.act {
			if mask&(1<<bit) == 0 {
				continue
			}
			for _, i := range q.layout.blocks[di] {
				tri[i] = domains[di].Elevate(fleet[i].Profile).TriState()
			}
		}
		pass.Reset(tri, regions)
		for i := range sums {
			sums[i].Add(weight * pass.Mass(i))
		}
	}
	return Result{
		Safe:        dist.Clamp01(sums[0].Sum()),
		Live:        dist.Clamp01(sums[1].Sum()),
		SafeAndLive: dist.Clamp01(sums[2].Sum()),
	}, nil
}

// AnalyzeDomainsMonteCarlo estimates the domain-aware Result by sampling
// in the same two stages as the exact conditioning: each domain's shock is
// drawn first, then every node independently from its base — or, if its
// domain shocked, elevated — profile. The draws are the sampler kernel's
// (montecarlo.Draws, untilted, on the stream seed selects); this
// counts the three predicates over them. It is the validation oracle for
// the exact domain engines.
func AnalyzeDomainsMonteCarlo(fleet Fleet, m CountModel, domains DomainSet, samples int, seed int64) (MCResult, error) {
	var q Query
	if err := q.resolveValid(fleet, m, domains); err != nil {
		return MCResult{}, err
	}
	if samples <= 0 {
		return MCResult{}, fmt.Errorf("core: need samples > 0, got %d", samples)
	}
	var draws montecarlo.Draws
	if err := draws.Reset(fleet.Profiles(), q.Members(), domains, montecarlo.TriTilt{}); err != nil {
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
