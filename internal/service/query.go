package service

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/inputcheck"
	"repro/internal/obs"
)

// This file defines the canonical query model of the serving layer: the
// wire requests, their validation, and their translation into the exact
// (core.Fleet, core.CountModel) pair whose fingerprint keys the cache.

// ModelSpec names a protocol model on the wire. Zero-valued quorum fields
// take the protocol's textbook defaults: majority quorums for Raft;
// 2f+1/f+1 quorums with f = (n-1)/3 for PBFT.
type ModelSpec struct {
	Protocol string `json:"protocol"` // "raft" or "pbft"
	N        int    `json:"n"`
	QPer     int    `json:"q_per,omitempty"`
	QVC      int    `json:"q_vc,omitempty"`
	QEq      int    `json:"q_eq,omitempty"`  // pbft only
	QVCT     int    `json:"q_vct,omitempty"` // pbft only
}

// memoMap is a tiny capped memoization map: lock-free-ish reads through
// an RWMutex, lazy initialization, and a size cap that bounds memory
// against adversarial key churn. A put that finds the map full clears it
// first (as core's evaluator maps do in maybeEvict), so a flood of
// distinct keys costs the legitimate ones one recomputation each and the
// map always retains what was put last. It is the single home of the
// locking discipline shared by the model and model-name caches below.
type memoMap[K comparable, V any] struct {
	mu  sync.RWMutex
	m   map[K]V
	cap int
}

func (c *memoMap[K, V]) get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

func (c *memoMap[K, V]) put(k K, v V) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]V)
	}
	if len(c.m) >= c.cap {
		clear(c.m)
	}
	c.m[k] = v
	c.mu.Unlock()
}

// modelCache memoizes resolved specs: sweep grids re-resolve the same
// few (protocol, n) specs for every cell, and the boxed model is
// immutable, so each distinct valid spec is built (and allocated) once.
var modelCache = memoMap[ModelSpec, core.CountModel]{cap: 4096}

// Model resolves the spec into a validated core.CountModel.
func (ms ModelSpec) Model() (core.CountModel, error) {
	if m, ok := modelCache.get(ms); ok {
		return m, nil
	}
	m, err := ms.resolve()
	if err != nil {
		return nil, err
	}
	modelCache.put(ms, m)
	return m, nil
}

// resolve builds and validates the model without consulting the cache.
func (ms ModelSpec) resolve() (core.CountModel, error) {
	if err := inputcheck.CheckClusterSize(ms.N); err != nil {
		return nil, err
	}
	switch ms.Protocol {
	case "raft":
		if ms.QEq != 0 || ms.QVCT != 0 {
			return nil, fmt.Errorf("q_eq/q_vct are PBFT parameters, not valid for raft")
		}
		m := core.NewRaft(ms.N)
		if ms.QPer != 0 {
			m.QPer = ms.QPer
		}
		if ms.QVC != 0 {
			m.QVC = ms.QVC
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	case "pbft":
		m := core.NewPBFTForN(ms.N)
		if ms.QEq != 0 {
			m.QEq = ms.QEq
		}
		if ms.QPer != 0 {
			m.QPer = ms.QPer
		}
		if ms.QVC != 0 {
			m.QVC = ms.QVC
		}
		if ms.QVCT != 0 {
			m.QVCT = ms.QVCT
		}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	case "":
		return nil, fmt.Errorf("model.protocol is required (raft or pbft)")
	default:
		return nil, fmt.Errorf("unknown protocol %q (want raft or pbft)", ms.Protocol)
	}
}

// NodeSpec is one server of a heterogeneous fleet on the wire. Domain
// optionally names the failure domain the node belongs to; it must match
// one of the request's domains entries.
type NodeSpec struct {
	Name   string  `json:"name,omitempty"`
	PCrash float64 `json:"p_crash"`
	PByz   float64 `json:"p_byz"`
	Domain string  `json:"domain,omitempty"`
}

// DomainSpec is one correlated failure domain on the wire: with
// probability shock, a domain-wide event multiplies every member node's
// crash probability by crash_mult and its Byzantine probability by
// byz_mult. Omitted multipliers default to 1 (unchanged).
type DomainSpec struct {
	Name      string   `json:"name"`
	Shock     float64  `json:"shock"`
	CrashMult *float64 `json:"crash_mult,omitempty"`
	ByzMult   *float64 `json:"byz_mult,omitempty"`
}

// resolveDomains validates the wire domains and appends the engine layout
// to dst.
func resolveDomains(dst core.DomainSet, specs []DomainSpec) (core.DomainSet, error) {
	if err := inputcheck.CheckDomainCount(len(specs)); err != nil {
		return nil, err
	}
	for i, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("domains[%d]: name is required", i)
		}
		// Each check's message starts with the field name it is given, so
		// the field's path is prefixed only on a refusal: a valid domain
		// formats nothing.
		if err := inputcheck.CheckProb("shock", spec.Shock); err != nil {
			return nil, fmt.Errorf("domains[%d].%w", i, err)
		}
		crashMult, byzMult := 1.0, 1.0
		if spec.CrashMult != nil {
			crashMult = *spec.CrashMult
		}
		if spec.ByzMult != nil {
			byzMult = *spec.ByzMult
		}
		if err := inputcheck.CheckShockMultiplier("crash_mult", crashMult); err != nil {
			return nil, fmt.Errorf("domains[%d].%w", i, err)
		}
		if err := inputcheck.CheckShockMultiplier("byz_mult", byzMult); err != nil {
			return nil, fmt.Errorf("domains[%d].%w", i, err)
		}
		dst = append(dst, faultcurve.Domain{
			Name:            spec.Name,
			ShockProb:       spec.Shock,
			CrashMultiplier: crashMult,
			ByzMultiplier:   byzMult,
		})
	}
	return dst, nil
}

// assignRoundRobin spreads a uniform fleet across the domains: node i
// joins domain i mod D — the balanced "one replica per zone in rotation"
// layout. It is how a uniform-p analyze request and every sweep cell
// acquire domain memberships.
func assignRoundRobin(fleet core.Fleet, domains core.DomainSet) {
	if len(domains) == 0 {
		return
	}
	for i := range fleet {
		fleet[i].Domain = domains[i%len(domains)].Name
	}
}

// AnalyzeRequest is the body of POST /v1/analyze. The fleet is given
// either explicitly (fleet, heterogeneous) or as a uniform per-node fault
// probability p (crash mass for raft, Byzantine mass for pbft — the
// Table 2 and Table 1 conventions). The optional domains block declares
// correlated failure domains: explicit fleets reference them per node via
// domain; uniform fleets are spread across them round-robin.
type AnalyzeRequest struct {
	Model   ModelSpec    `json:"model"`
	Fleet   []NodeSpec   `json:"fleet,omitempty"`
	P       *float64     `json:"p,omitempty"`
	Domains []DomainSpec `json:"domains,omitempty"`
	// Debug opts this request into the response's debug block: the cache
	// verdict, per-stage span timings, and the request ID. It never
	// changes the answer and does not partition the caches.
	Debug bool `json:"debug,omitempty"`
}

// MaxAnalyzeWork bounds the estimated engine cost of one analyze query in
// DP cell updates (the domain-free engine is n^3). The domain engines
// multiply that, so the bound — sized like MaxSweepWork, roughly a minute
// of single-core work — keeps one request from pinning a worker slot
// indefinitely.
const MaxAnalyzeWork = 2e10

// Query resolves and validates the request into the exact analysis
// inputs and enforces the analyze work bound. All validation errors are
// client errors (HTTP 400).
func (r AnalyzeRequest) Query() (core.Fleet, core.CountModel, core.DomainSet, error) {
	q, err := r.query(new(queryScratch))
	if err != nil {
		return nil, nil, nil, err
	}
	return q.Fleet, q.Model, q.Domains, nil
}

// query is Query into qs: the request resolved, then bounded.
func (r *AnalyzeRequest) query(qs *queryScratch) (*core.Query, error) {
	q, err := r.resolve(qs)
	if err != nil {
		return nil, err
	}
	if work := q.Work(); work > MaxAnalyzeWork {
		return nil, fmt.Errorf("query needs ~%.2g engine operations, maximum is %.2g (fewer domains or a smaller fleet)", work, float64(MaxAnalyzeWork))
	}
	return q, nil
}

// resolve validates the request and resolves its (fleet, model, domains)
// into qs — the one resolution the work estimate, the fingerprint and the
// engine all read — without enforcing any work bound: the tail endpoint
// applies its own per-request bound and dispatches on the estimate
// instead. Each node's profile is checked here, as it is copied, and
// nowhere after.
func (r *AnalyzeRequest) resolve(qs *queryScratch) (*core.Query, error) {
	m, err := r.Model.Model()
	if err != nil {
		return nil, err
	}
	domains, err := resolveDomains(qs.domains[:0], r.Domains)
	if err != nil {
		return nil, err
	}
	qs.domains = domains
	fleet := qs.fleet[:0]
	switch {
	case len(r.Fleet) > 0 && r.P != nil:
		return nil, fmt.Errorf("give either fleet or p, not both")
	case len(r.Fleet) > 0:
		if len(r.Fleet) != m.N() {
			return nil, fmt.Errorf("fleet has %d nodes but model.n is %d", len(r.Fleet), m.N())
		}
		fleet = slices.Grow(fleet, len(r.Fleet))
		for i, ns := range r.Fleet {
			if err := inputcheck.CheckProfile(ns.PCrash, ns.PByz); err != nil {
				return nil, fmt.Errorf("fleet[%d]: %w", i, err)
			}
			fleet = append(fleet, core.Node{
				Name:    ns.Name,
				Profile: faultcurve.Profile{PCrash: ns.PCrash, PByz: ns.PByz},
				Domain:  ns.Domain,
			})
		}
	case r.P != nil:
		if err := inputcheck.CheckProb("p", *r.P); err != nil {
			return nil, err
		}
		profile := faultcurve.Crash(*r.P)
		if r.Model.Protocol == "pbft" {
			profile = faultcurve.Byzantine(*r.P)
		}
		fleet = core.AppendUniformFleet(fleet, m.N(), profile)
		assignRoundRobin(fleet, domains)
	default:
		return nil, fmt.Errorf("give a fleet or a uniform p")
	}
	qs.fleet = fleet
	if err := qs.q.Resolve(fleet, m, domains); err != nil {
		return nil, err
	}
	return &qs.q, nil
}

// MaxNines caps nines renderings on the wire. float64 cannot represent
// probabilities closer to 1 than ~1.1e-16, so dist.Nines saturates to +Inf
// there — which JSON cannot encode. 16 nines marks "indistinguishable from
// certain at float64 resolution".
const MaxNines = 16

func jsonNines(p float64) float64 {
	n := dist.Nines(p)
	if n > MaxNines || math.IsInf(n, 1) {
		return MaxNines
	}
	return n
}

// PercentView renders the three probabilities in the paper's style.
type PercentView struct {
	Safe        string `json:"safe"`
	Live        string `json:"live"`
	SafeAndLive string `json:"safe_and_live"`
}

// AnalyzeResponse is the body of a POST /v1/analyze answer: the exact
// probabilities plus the percent and nines renderings of the paper.
type AnalyzeResponse struct {
	Model       string      `json:"model"`
	Safe        float64     `json:"safe"`
	Live        float64     `json:"live"`
	SafeAndLive float64     `json:"safe_and_live"`
	Percent     PercentView `json:"percent"`
	Nines       float64     `json:"nines"`
	Fingerprint string      `json:"fingerprint"`
	Cached      bool        `json:"cached"`
	// Debug is present only when the request set debug: true.
	Debug *DebugInfo `json:"debug,omitempty"`
}

// SpanView is one timed stage of a debugged request.
type SpanView struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// DebugInfo is the opt-in per-request observability block: where the
// answer came from ("l1_hit", "coalesced", or "miss"), how
// long each stage took, and the access-log request ID to grep for.
type DebugInfo struct {
	RequestID string     `json:"request_id,omitempty"`
	Cache     string     `json:"cache"`
	Spans     []SpanView `json:"spans,omitempty"`
}

func spanViews(all []obs.Span) []SpanView {
	if len(all) == 0 {
		return nil
	}
	out := make([]SpanView, len(all))
	for i, s := range all {
		out[i] = SpanView{Stage: s.Name, Seconds: s.Duration.Seconds()}
	}
	return out
}

// nameCache memoizes CountModel.Name() renderings: the name of a model
// is immutable and sweep grids re-render the same few models per cell.
var nameCache = memoMap[core.CountModel, string]{cap: 4096}

func modelName(m core.CountModel) string {
	if name, ok := nameCache.get(m); ok {
		return name
	}
	name := m.Name()
	nameCache.put(m, name)
	return name
}

func newAnalyzeResponse(m core.CountModel, res core.Result, fp string, cached bool) AnalyzeResponse {
	return AnalyzeResponse{
		Model:       modelName(m),
		Safe:        res.Safe,
		Live:        res.Live,
		SafeAndLive: res.SafeAndLive,
		Percent: PercentView{
			Safe:        dist.FormatPercent(res.Safe, 2),
			Live:        dist.FormatPercent(res.Live, 2),
			SafeAndLive: dist.FormatPercent(res.SafeAndLive, 2),
		},
		Nines:       jsonNines(res.SafeAndLive),
		Fingerprint: fp,
		Cached:      cached,
	}
}

// SweepRequest is the body of POST /v1/sweep: the (n, p) grid of uniform
// fleets to analyze, fanned out over the worker pool and streamed back as
// JSON lines in grid order (ns outer, ps inner). An optional domains
// block applies the same correlated-failure layout to every cell, with
// each cell's n nodes spread across the domains round-robin.
type SweepRequest struct {
	Protocol string       `json:"protocol"` // "raft" or "pbft"
	Ns       []int        `json:"ns"`
	Ps       []float64    `json:"ps"`
	Domains  []DomainSpec `json:"domains,omitempty"`
}

// MaxSweepCells bounds one sweep request's grid size; MaxSweepWork bounds
// its total engine cost (sum of n^3 over all cells — the joint-DP unit,
// an upper bound on a domain-free cell's region pass).
// 2e10 is roughly a minute of single-core work: big enough for any
// paper-style grid, small enough that one request cannot occupy the pool
// indefinitely. Per-cell size alone would not do: 65536 cells of N=1024
// would otherwise be CPU-days.
const (
	MaxSweepCells = 65536
	MaxSweepWork  = 2e10
)

// plan checks the grid before any work is scheduled and resolves the
// domain layout every cell shares. Every error is a validation failure,
// which callers report as a client error.
func (r SweepRequest) plan() (core.DomainSet, error) {
	if r.Protocol != "raft" && r.Protocol != "pbft" {
		return nil, fmt.Errorf("unknown protocol %q (want raft or pbft)", r.Protocol)
	}
	if len(r.Ns) == 0 || len(r.Ps) == 0 {
		return nil, fmt.Errorf("ns and ps must both be non-empty")
	}
	if cells := len(r.Ns) * len(r.Ps); cells > MaxSweepCells {
		return nil, fmt.Errorf("sweep grid has %d cells, maximum is %d", cells, MaxSweepCells)
	}
	domains, err := resolveDomains(nil, r.Domains)
	if err != nil {
		return nil, err
	}
	var work float64
	for _, n := range r.Ns {
		if err := inputcheck.CheckClusterSize(n); err != nil {
			return nil, err
		}
		// The engine cost of one cell at this n: n^3 for independent
		// fleets, the domain engine's estimate under the round-robin
		// layout otherwise.
		m, err := ModelSpec{Protocol: r.Protocol, N: n}.Model()
		if err != nil {
			return nil, err
		}
		fleet := make(core.Fleet, n)
		assignRoundRobin(fleet, domains)
		work += core.DomainsWorkEstimate(fleet, m, domains)
	}
	if work *= float64(len(r.Ps)); work > MaxSweepWork {
		return nil, fmt.Errorf("sweep grid needs ~%.2g engine operations, maximum is %.2g", work, float64(MaxSweepWork))
	}
	for _, p := range r.Ps {
		if err := inputcheck.CheckProb("p", p); err != nil {
			return nil, err
		}
	}
	return domains, nil
}

// SweepLine is one JSON line of a sweep stream.
type SweepLine struct {
	N           int     `json:"n"`
	P           float64 `json:"p"`
	Model       string  `json:"model"`
	Safe        float64 `json:"safe"`
	Live        float64 `json:"live"`
	SafeAndLive float64 `json:"safe_and_live"`
	Nines       float64 `json:"nines"`
	Error       string  `json:"error,omitempty"`
}

// TableRowView is one row of GET /v1/tables, shared by both tables.
type TableRowView struct {
	Model       string      `json:"model"`
	PU          float64     `json:"p_u"`
	Safe        float64     `json:"safe"`
	Live        float64     `json:"live"`
	SafeAndLive float64     `json:"safe_and_live"`
	Percent     PercentView `json:"percent"`
}

// TablesResponse is the body of GET /v1/tables: the paper's Table 1
// (PBFT at p_u = 1%) and Table 2 (Raft at the four p_u columns).
type TablesResponse struct {
	Table1 []TableRowView `json:"table1"`
	Table2 []TableRowView `json:"table2"`
}
