package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// Engine-stage latency histograms and evaluator-pool traffic counters,
// registered on the process-global obs registry next to the dist DP
// counters. The stage split (dp_build vs tail_fold) is the aggregate
// form of the request-scoped span timer the service's debug block
// carries: dp_build is a domain-free analysis's count-region pass over
// the fleet, tail_fold the summation of its region masses. Observing
// costs two monotonic clock reads per stage and zero allocations, so the
// evaluator's zero-alloc guarantees hold with instrumentation active
// (pinned by TestEvaluatorAnalyzeZeroAllocs).
var (
	stageDPBuild = obs.Default().Histogram("probcons_engine_stage_seconds",
		"Engine stage latency of a domain-free analysis: dp_build is its count-region pass, tail_fold the summation of the region masses.",
		obs.LatencyBuckets, obs.Labels{"stage": "dp_build"})
	stageTailFold = obs.Default().Histogram("probcons_engine_stage_seconds",
		"Engine stage latency of a domain-free analysis: dp_build is its count-region pass, tail_fold the summation of the region masses.",
		obs.LatencyBuckets, obs.Labels{"stage": "tail_fold"})
	evalPoolGets = obs.Default().Counter("probcons_engine_evaluator_pool_gets_total",
		"Evaluators borrowed from an EvaluatorPool.", nil)
	evalPoolPuts = obs.Default().Counter("probcons_engine_evaluator_pool_puts_total",
		"Evaluators returned to an EvaluatorPool.", nil)
	evalPoolAllocs = obs.Default().Counter("probcons_engine_evaluator_pool_allocs_total",
		"Pool Gets that allocated a fresh Evaluator (pool was empty).", nil)
)

// Evaluator is the reusable-workspace analysis engine: it owns the DP
// buffers every exact count-based analysis needs, so a long-lived
// Evaluator answers a stream of queries with zero steady-state
// allocations (pinned by TestEvaluatorAnalyzeZeroAllocs). It also carries
// the incremental machinery the hot paths stack on: the one-pass
// quorum-sizing sweeps that build the joint DP once per fleet and the
// correlated-domain caches.
//
// Ownership rules (see DESIGN.md "Incremental evaluation engine"):
//
//   - An Evaluator is NOT safe for concurrent use. Each goroutine takes
//     its own, or shares through an EvaluatorPool.
//   - Results are plain values; nothing an Evaluator returns aliases its
//     workspaces, so callers may keep results forever.
//
// The package-level Analyze/Sweep functions are thin wrappers that run a
// throwaway Evaluator — identical answers, fresh allocations.
type Evaluator struct {
	tri     []dist.TriState
	regions dist.RegionPass
	joint   dist.JointCrashByz
	tails   quorumTails
	// dom holds the resolved domain layout of the query in flight and the
	// correlated-domain workspace and caches (see domaincache.go).
	dom domainState
}

// NewEvaluator returns an empty evaluator; workspaces grow on first use
// and are reused afterwards.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// resultFromJointModel sums a model's safe, live and safe-and-live regions
// over a joint table, one dist.RegionSum each, clamped. It is the base of
// the domain engines and the oracle of Analyze's region pass.
func resultFromJointModel(j *dist.JointCrashByz, m CountModel) Result {
	safe, live := m.Regions()
	return Result{
		Safe:        dist.Clamp01(j.RegionSum(safe)),
		Live:        dist.Clamp01(j.RegionSum(live)),
		SafeAndLive: dist.Clamp01(j.RegionSum(safe.Intersect(live))),
	}
}

// loadFleet validates the fleet and loads its nodes' tri-states into the
// evaluator's workspace, the input of every DP over it.
func (e *Evaluator) loadFleet(fleet Fleet) error {
	if err := fleet.Validate(); err != nil {
		return err
	}
	e.tri = e.tri[:0]
	for _, n := range fleet {
		e.tri = append(e.tri, n.Profile.TriState())
	}
	return nil
}

// Analyze computes the exact Result for a fleet under a count-based
// protocol model, reusing the evaluator's workspaces: zero steady-state
// allocations once the buffers have grown to the fleet size. The model's
// safe, live and safe-and-live sets are count regions, so one truncated
// region pass (dist.RegionPass) answers all three without the joint table
// (DESIGN.md "Count regions"). Identical answers to the package-level
// Analyze.
func (e *Evaluator) Analyze(fleet Fleet, m CountModel) (Result, error) {
	start := time.Now()
	if len(fleet) != m.N() {
		return Result{}, fmt.Errorf("core: fleet size %d != model N %d", len(fleet), m.N())
	}
	if err := e.loadFleet(fleet); err != nil {
		return Result{}, err
	}
	safe, live := m.Regions()
	e.regions.Reset(e.tri, [3]dist.Region{safe, live, safe.Intersect(live)})
	folded := time.Now()
	stageDPBuild.ObserveDuration(folded.Sub(start))
	res := Result{Safe: e.regions.Mass(0), Live: e.regions.Mass(1), SafeAndLive: e.regions.Mass(2)}
	stageTailFold.ObserveSince(folded)
	return res, nil
}

// AnalyzeDomains is the evaluator counterpart of the package-level
// AnalyzeDomains: domain-free queries (the common serving case) run
// through the reusable workspace, and populated domain layouts dispatch —
// via the same plan DomainsWorkEstimate prices — to the evaluator's
// correlated engines: the cached mixture recombination (domaincache.go)
// or the workspace 2^D conditioning. A fleet whose nodes reference domains
// missing from the set is rejected, never silently analyzed as independent.
func (e *Evaluator) AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	if err := e.dom.resolveQuery(fleet, m, domains); err != nil {
		return Result{}, err
	}
	if len(e.dom.act) == 0 {
		return e.Analyze(fleet, m)
	}
	if engine, _ := chooseDomainEngine(len(fleet), e.dom.blocks); engine == engineConditioned {
		return e.analyzeDomainsConditioned(fleet, m, domains)
	}
	return e.analyzeDomainsMixture(fleet, m, domains)
}

// EvaluatorPool shares evaluators across goroutines: each worker takes a
// private Evaluator for the duration of one computation and returns it,
// so concurrent workers never share a workspace while hot paths still
// reach zero steady-state allocations. The zero value is ready to use.
type EvaluatorPool struct {
	p sync.Pool
}

// NewEvaluatorPool returns an empty pool.
func NewEvaluatorPool() *EvaluatorPool { return &EvaluatorPool{} }

// Get takes an evaluator from the pool (allocating one if idle).
func (p *EvaluatorPool) Get() *Evaluator {
	evalPoolGets.Inc()
	if e, ok := p.p.Get().(*Evaluator); ok {
		return e
	}
	evalPoolAllocs.Inc()
	return NewEvaluator()
}

// Put returns an evaluator to the pool. The caller must not use it again.
func (p *EvaluatorPool) Put(e *Evaluator) {
	evalPoolPuts.Inc()
	p.p.Put(e)
}

// Analyze runs one exact analysis on a pooled evaluator.
func (p *EvaluatorPool) Analyze(fleet Fleet, m CountModel) (Result, error) {
	e := p.Get()
	defer p.Put(e)
	return e.Analyze(fleet, m)
}

// AnalyzeDomains runs one domain-aware analysis on a pooled evaluator —
// the drop-in engine the serving layer's worker pool uses.
func (p *EvaluatorPool) AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	e := p.Get()
	defer p.Put(e)
	return e.AnalyzeDomains(fleet, m, domains)
}
