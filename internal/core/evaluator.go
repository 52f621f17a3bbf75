package core

import (
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
// correlated-domain rest tables.
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
	q       Query // an AnalyzeDomains call's, resolved into reused buffers
	// dom holds the correlated-domain workspace and rest tables (see
	// domaincache.go).
	dom domainState
}

// NewEvaluator returns an empty evaluator; workspaces grow on first use
// and are reused afterwards.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// modelRegions returns a model's safe, live and safe-and-live regions, the
// three tables every analysis folds, in that order.
func modelRegions(m CountModel) [3]dist.Region {
	safe, live := m.Regions()
	return [3]dist.Region{safe, live, safe.Intersect(live)}
}

// regionResult reads a model's safe, live and safe-and-live masses off
// tables folded or combined over its three regions, in that order.
func regionResult(rp *dist.RegionPass) Result {
	return Result{Safe: rp.Mass(0), Live: rp.Mass(1), SafeAndLive: rp.Mass(2)}
}

// loadFleet validates the fleet and loads its nodes' tri-states into the
// evaluator's workspace, the input of every DP over it.
func (e *Evaluator) loadFleet(fleet Fleet) error {
	if err := fleet.Validate(); err != nil {
		return err
	}
	e.loadTri(fleet)
	return nil
}

// loadTri loads a checked fleet's tri-states into the workspace.
func (e *Evaluator) loadTri(fleet Fleet) {
	e.tri = e.tri[:0]
	for _, n := range fleet {
		e.tri = append(e.tri, n.Profile.TriState())
	}
}

// Analyze computes the exact Result for a fleet under a count-based
// protocol model, reusing the evaluator's workspaces: zero steady-state
// allocations once the buffers have grown to the fleet size. Identical
// answers to the package-level Analyze.
func (e *Evaluator) Analyze(fleet Fleet, m CountModel) (Result, error) {
	if err := checkSize(fleet, m); err != nil {
		return Result{}, err
	}
	if err := fleet.Validate(); err != nil {
		return Result{}, err
	}
	return e.analyze(fleet, m), nil
}

// analyze is the domain-free engine over a checked fleet. The model's
// safe, live and safe-and-live sets are count regions, so one truncated
// region pass (dist.RegionPass) answers all three without the joint table
// (DESIGN.md "Count regions").
func (e *Evaluator) analyze(fleet Fleet, m CountModel) Result {
	start := time.Now()
	e.loadTri(fleet)
	e.regions.Reset(e.tri, modelRegions(m))
	folded := time.Now()
	stageDPBuild.ObserveDuration(folded.Sub(start))
	res := regionResult(&e.regions)
	stageTailFold.ObserveSince(folded)
	return res
}

// AnalyzeDomains is the evaluator counterpart of the package-level
// AnalyzeDomains: it validates the query into the evaluator's own Query
// and answers it through AnalyzeQuery. A fleet whose nodes reference
// domains missing from the set is rejected, never silently analyzed as
// independent.
func (e *Evaluator) AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	if err := e.q.resolveValid(fleet, m, domains); err != nil {
		return Result{}, err
	}
	return e.AnalyzeQuery(&e.q), nil
}

// AnalyzeQuery answers a resolved Query, checking nothing again: a
// domain-free one (the common serving case) in the reusable workspace, a
// populated layout on the domain engine and its rest tables.
func (e *Evaluator) AnalyzeQuery(q *Query) Result {
	if len(q.layout.act) == 0 {
		return e.analyze(q.Fleet, q.Model)
	}
	return e.analyzeDomains(q)
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

// AnalyzeDomains runs one domain-aware analysis on a pooled evaluator.
func (p *EvaluatorPool) AnalyzeDomains(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	e := p.Get()
	defer p.Put(e)
	return e.AnalyzeDomains(fleet, m, domains)
}

// AnalyzeQuery runs one resolved query on a pooled evaluator — the engine
// the serving layer's worker pool uses.
func (p *EvaluatorPool) AnalyzeQuery(q *Query) Result {
	e := p.Get()
	defer p.Put(e)
	return e.AnalyzeQuery(q)
}
