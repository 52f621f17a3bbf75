package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/inputcheck"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// This file is the serving surface of the projection-free optimizer
// (internal/optimize): POST /v1/optimize resolves a hardening-budget
// question — split a budget across nodes, or across failure-domain
// shock-hardening, to maximize nines — validates it with the shared
// inputcheck bounds, runs away-step Frank-Wolfe, and caches the full
// response under the canonical problem fingerprint.

// CurveSpec is the shared spend→probability response shape on the wire:
// every node (or domain) gets faultcurve.HardeningResponse(base,
// floor_frac, scale) — the reducible share of its base probability decays
// with e-folding spend scale, down to floor_frac·base.
type CurveSpec struct {
	FloorFrac float64 `json:"floor_frac"`
	Scale     float64 `json:"scale"`
}

// OptimizeRequest is the body of POST /v1/optimize. The fleet block is
// the same as /v1/analyze (explicit fleet or uniform p, optional
// domains). Target selects what the budget hardens: "nodes" (default)
// buys down per-node fault probabilities; "domains" buys down the
// domains' common-cause shock probabilities (requires a domains block).
type OptimizeRequest struct {
	Model   ModelSpec    `json:"model"`
	Fleet   []NodeSpec   `json:"fleet,omitempty"`
	P       *float64     `json:"p,omitempty"`
	Domains []DomainSpec `json:"domains,omitempty"`

	Budget float64 `json:"budget"`
	// MaxSpend optionally caps any single node's (or domain's) spend.
	MaxSpend float64   `json:"max_spend,omitempty"`
	Curve    CurveSpec `json:"curve"`
	Target   string    `json:"target,omitempty"`
	// Iterations bounds the solver (default 500); Tolerance is the
	// duality-gap stopping certificate (default 1e-9).
	Iterations int     `json:"iterations,omitempty"`
	Tolerance  float64 `json:"tolerance,omitempty"`
}

// MaxOptimizeWork bounds the estimated engine cost of one optimize
// request, in DP cell updates: iterations × line-search gradient calls ×
// per-gradient engine work. Sized like MaxAnalyzeWork/MaxSweepWork —
// roughly a minute of single-core work.
const MaxOptimizeWork = 2e10

// gradCallsPerIteration is the worst-case gradient evaluations one
// away-step iteration spends: the iterate's own gradient plus the exact
// line search, a bracketing root-finder on the directional derivative
// that stops at 64 probes (optimize's maxStepProbes). The typical count is
// about 6 (probcons_optimize_grad_evaluations_total over
// ..._iterations_total); admission is sized on the cap, which
// optimize.TestLineSearchPin asserts solve by solve.
const gradCallsPerIteration = 70

// AllocationLine is one row of the optimize response: where spend went
// and what it did to that node's (or domain's) probability.
type AllocationLine struct {
	Name    string  `json:"name"`
	Spend   float64 `json:"spend"`
	PBefore float64 `json:"p_before"`
	PAfter  float64 `json:"p_after"`
}

// ResultView renders one exact Result on the wire.
type ResultView struct {
	Safe        float64 `json:"safe"`
	Live        float64 `json:"live"`
	SafeAndLive float64 `json:"safe_and_live"`
	Nines       float64 `json:"nines"`
}

func newResultView(r core.Result) ResultView {
	return ResultView{Safe: r.Safe, Live: r.Live, SafeAndLive: r.SafeAndLive, Nines: jsonNines(r.SafeAndLive)}
}

// OptimizeResponse is the body of a POST /v1/optimize answer: the
// allocation, the exact results it is judged by (no spend, even split,
// optimized split), and the solver certificate.
type OptimizeResponse struct {
	Model      string           `json:"model"`
	Target     string           `json:"target"`
	Budget     float64          `json:"budget"`
	Allocation []AllocationLine `json:"allocation"`
	Base       ResultView       `json:"base"`
	Uniform    ResultView       `json:"uniform"`
	Optimized  ResultView       `json:"optimized"`
	// Gap is the Frank-Wolfe duality-gap certificate at the returned
	// allocation; Converged reports Gap <= tolerance.
	Gap         float64 `json:"gap"`
	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
}

// optimizeTargets.
const (
	targetNodes   = "nodes"
	targetDomains = "domains"
)

// validateCommon checks the optimizer-specific fields shared by both
// targets; the fleet/model/domains block reuses the analyze validation.
func (r OptimizeRequest) validateCommon() error {
	if err := inputcheck.CheckBudget("budget", r.Budget); err != nil {
		return err
	}
	if r.MaxSpend != 0 {
		if err := inputcheck.CheckBudget("max_spend", r.MaxSpend); err != nil {
			return err
		}
	}
	iters := r.Iterations
	if iters == 0 {
		iters = 500 // the solver default; still bounded below
	}
	if err := inputcheck.CheckIterations(iters); err != nil {
		return err
	}
	if err := inputcheck.CheckProb("curve.floor_frac", r.Curve.FloorFrac); err != nil {
		return err
	}
	if err := inputcheck.CheckPositive("curve.scale", r.Curve.Scale); err != nil {
		return err
	}
	if r.Tolerance != 0 {
		if err := inputcheck.CheckPositive("tolerance", r.Tolerance); err != nil {
			return err
		}
	}
	switch r.Target {
	case "", targetNodes, targetDomains:
	default:
		return fmt.Errorf("unknown target %q (want nodes or domains)", r.Target)
	}
	return nil
}

// optimizePlan is a validated optimize query: its name-invariant cache
// key, this requester's labels, and the solve that answers a miss.
type optimizePlan struct {
	key   string
	names []string
	solve func() (OptimizeResponse, error)
}

// planOptimize validates the request, bounds its work and keys it. Each
// target contributes its problem-specific pieces; the work bound, the
// cache key and the rendering are shared. All errors are client errors.
func planOptimize(req OptimizeRequest, qs *queryScratch) (optimizePlan, error) {
	if err := req.validateCommon(); err != nil {
		return optimizePlan{}, badRequest(err)
	}
	// Reuse the analyze resolution for fleet, model, and domains —
	// including the per-query work bound on the underlying engine.
	ar := AnalyzeRequest{Model: req.Model, Fleet: req.Fleet, P: req.P, Domains: req.Domains}
	q, err := ar.query(qs)
	if err != nil {
		return optimizePlan{}, badRequest(err)
	}
	fleet, m, domains := q.Fleet, q.Model, q.Domains
	opts := optimize.Options{MaxIterations: req.Iterations, GapTolerance: req.Tolerance}
	if opts.GapTolerance == 0 {
		opts.GapTolerance = 1e-9
	}
	iters := opts.MaxIterations
	if iters <= 0 {
		iters = 500
	}

	target := req.Target
	if target == "" {
		target = targetNodes
	}
	var (
		names     []string
		pBefore   []float64
		curves    []faultcurve.Response
		workHint  string
		problemFP func(optimize.Options) (string, error)
		solve     func() (optimize.Allocation, error)
	)
	switch target {
	case targetNodes:
		curves = make([]faultcurve.Response, len(fleet))
		for i, n := range fleet {
			curves[i] = faultcurve.HardeningResponse(n.Profile.PFail(), req.Curve.FloorFrac, req.Curve.Scale)
			names = append(names, n.Name)
			pBefore = append(pBefore, n.Profile.PFail())
		}
		p := optimize.HardeningProblem{
			Fleet: fleet, Model: m, Domains: domains,
			Curves: curves, Budget: req.Budget, MaxPerNode: req.MaxSpend,
		}
		if err := p.Validate(); err != nil {
			return optimizePlan{}, badRequest(err)
		}
		workHint = "fewer iterations or a smaller fleet"
		problemFP = p.Fingerprint
		solve = func() (optimize.Allocation, error) { return optimize.SolveHardening(p, opts) }
	case targetDomains:
		if len(domains) == 0 {
			return optimizePlan{}, badRequest(fmt.Errorf("target domains requires a domains block"))
		}
		curves = make([]faultcurve.Response, len(domains))
		for i, d := range domains {
			curves[i] = faultcurve.HardeningResponse(d.ShockProb, req.Curve.FloorFrac, req.Curve.Scale)
			names = append(names, d.Name)
			pBefore = append(pBefore, d.ShockProb)
		}
		p := optimize.DomainHardeningProblem{
			Fleet: fleet, Model: m, Domains: domains,
			Curves: curves, Budget: req.Budget, MaxPerDomain: req.MaxSpend,
		}
		if err := p.Validate(); err != nil {
			return optimizePlan{}, badRequest(err)
		}
		workHint = "fewer iterations or fewer domains"
		problemFP = p.Fingerprint
		solve = func() (optimize.Allocation, error) { return optimize.SolveDomainHardening(p, opts) }
	}
	// A gradient is priced at one engine run per coordinate, node or domain,
	// over its walk and leave-one-outs (core.Evaluator.Gradient).
	if work := float64(iters) * gradCallsPerIteration * (float64(len(names)) * q.Work()); work > MaxOptimizeWork {
		return optimizePlan{}, badRequest(fmt.Errorf(
			"optimize needs ~%.2g engine operations, maximum is %.2g (%s)",
			work, float64(MaxOptimizeWork), workHint))
	}
	key, err := problemFP(opts)
	if err != nil {
		return optimizePlan{}, badRequest(err)
	}
	return optimizePlan{key: key, names: names, solve: func() (OptimizeResponse, error) {
		a, err := solve()
		if err != nil {
			return OptimizeResponse{}, err
		}
		lines := make([]AllocationLine, len(names))
		for i := range lines {
			lines[i] = AllocationLine{
				Name:    names[i],
				Spend:   a.Spend[i],
				PBefore: pBefore[i],
				PAfter:  curves[i].Prob(a.Spend[i]),
			}
		}
		return OptimizeResponse{
			Model:       m.Name(),
			Target:      target,
			Budget:      req.Budget,
			Allocation:  lines,
			Base:        newResultView(a.Base),
			Uniform:     newResultView(a.Uniform),
			Optimized:   newResultView(a.Optimized),
			Gap:         a.Gap,
			Iterations:  a.Iterations,
			Converged:   a.Converged,
			Fingerprint: key,
		}, nil
	}}, nil
}

// Optimize resolves, validates, solves, and caches one optimize query.
func (s *Server) Optimize(req OptimizeRequest) (OptimizeResponse, error) {
	sc := getScratch()
	defer putScratch(sc)
	return s.optimizeTraced(req, sc, nil)
}

// optimizeTraced is Optimize with the request's scratch and flight-recorder
// trace threaded through (a nil trace for library calls; recording
// no-ops).
func (s *Server) optimizeTraced(req OptimizeRequest, sc *scratch, tr *obs.Trace) (OptimizeResponse, error) {
	start := time.Now()
	p, err := planOptimize(req, sc.query())
	if err != nil {
		return OptimizeResponse{}, err
	}
	tr.Since("resolve", start)
	return s.runOptimize(p, tr)
}

// runOptimize answers one planned optimize query through the optimize
// cache; a miss solves holding an engine worker slot.
func (s *Server) runOptimize(p optimizePlan, tr *obs.Trace) (OptimizeResponse, error) {
	resp, verdict, err := cachedRun(s.ocache, p.key, tr, func() (OptimizeResponse, error) {
		return withWorker(s, func() (OptimizeResponse, error) {
			sstart := time.Now()
			defer tr.Since("solve", sstart)
			return p.solve()
		})
	})
	if err != nil {
		return OptimizeResponse{}, fmt.Errorf("optimization failed: %w", err)
	}
	// Detach the one slice the response shares with the cache entry (a
	// library caller mutating its response must not corrupt later hits),
	// and render THIS request's labels onto it: the cache key is the
	// name-invariant problem fingerprint, so a hit may carry another
	// requester's names — everything numeric is identical by construction.
	resp.Allocation = append([]AllocationLine(nil), resp.Allocation...)
	for i := range resp.Allocation {
		resp.Allocation[i].Name = p.names[i]
	}
	resp.Cached = verdict == verdictHit
	return resp, nil
}
