package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
	"repro/internal/obs"
)

// POST /v1/tail: work-bounded deep-tail queries. /v1/analyze reports the
// headline probabilities; this endpoint answers "how likely is the rare
// event itself" — unavailability, unsafety — at depths like 1e-10, where
// subtracting from a percentage is the whole answer. Every request
// carries a work bound; the server dispatches between the exact engine
// (when the cost estimate fits the bound) and the trinomial importance
// sampler (when it does not, or when explicitly requested as a
// cross-validation of the exact path). Responses are cached under the
// canonical fleet fingerprint plus the tail parameters.

// Tail events.
const (
	EventNotLive = "not_live" // !Live: the deployment cannot serve
	EventUnsafe  = "unsafe"   // !Safe: a safety violation is possible
	EventNotOK   = "not_ok"   // !(Safe && Live): either failure
)

// Tail methods.
const (
	MethodAuto       = "auto"
	MethodExact      = "exact"
	MethodImportance = "importance"
)

// Tail work bounds. A request's max_work is denominated in engine
// operations — DP cell updates for the exact path, (samples x n) node
// draws for the sampler — and defaults to DefaultTailWork. The sampler's
// sample count is derived from the bound; MaxTailSamples caps it
// regardless of how generous the bound is.
const (
	DefaultTailWork    = MaxAnalyzeWork
	DefaultTailSamples = 200_000
	MaxTailSamples     = 5_000_000
)

// TailRequest is the body of POST /v1/tail. Fleet/p/domains follow
// /v1/analyze exactly; event selects the rare event; method is "auto"
// (default: exact when the cost estimate fits max_work, importance
// otherwise), "exact" (400 if over the bound), or "importance" (forced —
// the serving twin of the validation experiments). samples and seed
// apply to the importance path only; seed defaults to 1 so repeated
// queries are deterministic and cacheable, and only seed mod (2^31 − 1)
// selects the stream (montecarlo.StreamSeed).
type TailRequest struct {
	Model   ModelSpec    `json:"model"`
	Fleet   []NodeSpec   `json:"fleet,omitempty"`
	P       *float64     `json:"p,omitempty"`
	Domains []DomainSpec `json:"domains,omitempty"`
	Event   string       `json:"event"`
	Method  string       `json:"method,omitempty"`
	MaxWork float64      `json:"max_work,omitempty"`
	Samples int          `json:"samples,omitempty"`
	Seed    int64        `json:"seed,omitempty"`
}

// TailResponse is the body of a POST /v1/tail answer. P is the event
// probability; Nines renders the complement as nines of reliability.
// StdErr, RelCI99, Samples, and EffectiveSamples are present on the
// importance path only: RelCI99 is the half-width of the 99% normal CI
// relative to P — the estimator's own statement of how well it resolved
// the tail within the work bound.
type TailResponse struct {
	Model            string  `json:"model"`
	Event            string  `json:"event"`
	Method           string  `json:"method"`
	P                float64 `json:"p"`
	Nines            float64 `json:"nines"`
	StdErr           float64 `json:"std_err,omitempty"`
	RelCI99          float64 `json:"rel_ci99,omitempty"`
	Samples          int     `json:"samples,omitempty"`
	EffectiveSamples float64 `json:"effective_samples,omitempty"`
	Work             float64 `json:"work"`
	Fingerprint      string  `json:"fingerprint"`
	Cached           bool    `json:"cached"`
}

// eventRegion is the count region whose complement is the event: the
// model's safe region for unsafe, its live region for not_live, their
// intersection for not_ok.
func eventRegion(m core.CountModel, event string) dist.Region {
	safe, live := m.Regions()
	switch event {
	case EventUnsafe:
		return safe
	case EventNotLive:
		return live
	default: // EventNotOK; validated upstream
		return safe.Intersect(live)
	}
}

// minEventCount is the smallest total failure count of an achievable
// configuration outside r — one that triggers the event — or -1 if there
// is none (the event then has exact probability 0, and the sampler would
// only burn its budget confirming it). A configuration (c, b) is
// achievable iff c crash-capable and b Byzantine-capable nodes can be
// chosen disjointly; shocks only multiply probabilities, so a node with
// zero mass stays at zero. Leaving r = {b <= β, c + b <= κ} takes either
// κ + 1 faulty nodes, achievable iff that many nodes have any fault mass,
// or β + 1 Byzantine ones, achievable iff that many have Byzantine mass;
// an empty r is left by (0, 0).
func minEventCount(fleet core.Fleet, r dist.Region) int {
	if r.Byz < 0 || r.Faulty < 0 {
		return 0
	}
	var nByz, nEither int
	for _, node := range fleet {
		if node.Profile.PByz > 0 {
			nByz++
		}
		if node.Profile.PCrash > 0 || node.Profile.PByz > 0 {
			nEither++
		}
	}
	best := -1
	if r.Faulty+1 <= nEither {
		best = r.Faulty + 1
	}
	if r.Byz+1 <= nByz && (best == -1 || r.Byz+1 < best) {
		best = r.Byz + 1
	}
	return best
}

// tailPlan is a validated tail query with its dispatch resolved: what to
// run, on which inputs, under which key. planTail builds it; Tail
// executes it; the fuzz target asserts its invariants without executing.
type tailPlan struct {
	query    analyzePlan // the underlying exact query; its key is the fleet fingerprint
	pred     montecarlo.TriPred
	event    string
	resolved string // MethodExact or MethodImportance
	samples  int    // importance only
	seed     int64
	maxWork  float64
	estimate float64 // exact-engine cost estimate
	kMin     int     // minimal achievable failure count triggering the event; -1 = impossible
	key      string
}

// planTail validates the request and resolves its dispatch. All errors
// are client errors.
func planTail(req TailRequest) (tailPlan, error) {
	var plan tailPlan
	switch req.Event {
	case EventNotLive, EventUnsafe, EventNotOK:
	case "":
		return plan, badRequest(fmt.Errorf("event is required (%s, %s, or %s)", EventNotLive, EventUnsafe, EventNotOK))
	default:
		return plan, badRequest(fmt.Errorf("unknown event %q (want %s, %s, or %s)", req.Event, EventNotLive, EventUnsafe, EventNotOK))
	}
	method := req.Method
	if method == "" {
		method = MethodAuto
	}
	switch method {
	case MethodAuto, MethodExact, MethodImportance:
	default:
		return plan, badRequest(fmt.Errorf("unknown method %q (want %s, %s, or %s)", req.Method, MethodAuto, MethodExact, MethodImportance))
	}
	maxWork := req.MaxWork
	if maxWork == 0 {
		maxWork = DefaultTailWork
	}
	if maxWork < 0 || maxWork != maxWork { // negative or NaN
		return plan, badRequest(fmt.Errorf("max_work must be positive, got %v", req.MaxWork))
	}
	if maxWork > MaxAnalyzeWork {
		return plan, badRequest(fmt.Errorf("max_work %.2g exceeds the server bound %.2g", maxWork, float64(MaxAnalyzeWork)))
	}
	if req.Samples < 0 || req.Samples > MaxTailSamples {
		return plan, badRequest(fmt.Errorf("samples must be in [0, %d], got %d", MaxTailSamples, req.Samples))
	}

	fleet, m, domains, err := AnalyzeRequest{Model: req.Model, Fleet: req.Fleet, P: req.P, Domains: req.Domains}.resolve()
	if err != nil {
		return plan, badRequest(err)
	}
	r := eventRegion(m, req.Event)
	pred := func(c, b int) bool { return !r.Holds(c, b) }
	n := len(fleet)
	estimate := core.DomainsWorkEstimate(fleet, domains)

	// Impossible events answer exactly, whatever the method: the count is
	// O(n) and the alternative is a sampler that cannot hit.
	kMin := minEventCount(fleet, r)

	// Dispatch.
	resolved := method
	if method == MethodAuto {
		if estimate <= maxWork {
			resolved = MethodExact
		} else {
			resolved = MethodImportance
		}
	}
	if kMin == -1 {
		resolved = MethodExact
	}
	samples := 0
	if resolved == MethodExact {
		if kMin != -1 && estimate > maxWork {
			return plan, badRequest(fmt.Errorf("exact evaluation needs ~%.2g engine operations, max_work is %.2g (raise it or use method importance)", estimate, maxWork))
		}
	} else {
		budget := int(maxWork / float64(n))
		samples = req.Samples
		if samples == 0 {
			samples = DefaultTailSamples
			if samples > budget {
				samples = budget
			}
		} else if samples > budget {
			return plan, badRequest(fmt.Errorf("samples x n = %.2g exceeds max_work %.2g", float64(samples)*float64(n), maxWork))
		}
		if samples < 1 {
			return plan, badRequest(fmt.Errorf("max_work %.2g affords no samples for a fleet of %d nodes", maxWork, n))
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	query, err := keyQuery(fleet, m, domains, nil)
	if err != nil {
		return plan, err
	}
	key := query.key + "/tail/" + req.Event + "/" + resolved
	if resolved == MethodImportance {
		// Seeds that select the same generator stream get the same
		// estimate, so they share one entry.
		key = fmt.Sprintf("%s/s%d/x%d", key, samples, montecarlo.StreamSeed(seed))
	}

	plan = tailPlan{
		query:    query,
		pred:     pred,
		event:    req.Event,
		resolved: resolved,
		samples:  samples,
		seed:     seed,
		maxWork:  maxWork,
		estimate: estimate,
		kMin:     kMin,
		key:      key,
	}
	return plan, nil
}

// Tail answers one tail query through the tail cache. It is the
// handler's core and the campaign CLI's serving twin.
func (s *Server) Tail(req TailRequest) (TailResponse, error) {
	return s.tailTraced(req, nil)
}

// tailTraced is Tail with the request's flight-recorder trace threaded
// through (nil for library calls; recording no-ops).
func (s *Server) tailTraced(req TailRequest, tr *obs.Trace) (TailResponse, error) {
	start := time.Now()
	plan, err := planTail(req)
	if err != nil {
		return TailResponse{}, err
	}
	tr.Since("plan", start)
	return s.runTail(plan, tr)
}

// runTail answers one planned tail query through the tail cache,
// dispatching a miss to the method the plan resolved.
func (s *Server) runTail(plan tailPlan, tr *obs.Trace) (TailResponse, error) {
	start := time.Now()
	s.m.tailDispatch[plan.resolved].Inc()
	resp, verdict, err := cachedRun(s.tcache, plan.key, tr, nil, func() (TailResponse, error) {
		if plan.resolved == MethodImportance {
			return s.tailImportance(plan, tr)
		}
		return s.tailExact(plan, tr)
	})
	if err != nil {
		return TailResponse{}, err
	}
	resp.Cached = verdict == verdictHit
	s.m.tailSeconds[plan.resolved].ObserveSince(start)
	return resp, nil
}

// tailExact answers through the exact engine: the analyze cache supplies
// the Result and the tail is its complement. Events no achievable
// configuration triggers short-circuit to exactly 0 without running the
// engine. The complement costs ~1e-16 absolute error, so depths beyond
// ~1e-15 saturate; RelCI99 is 0 because the engine is exact.
func (s *Server) tailExact(plan tailPlan, tr *obs.Trace) (TailResponse, error) {
	resp := TailResponse{
		Model:       modelName(plan.query.model),
		Event:       plan.event,
		Method:      MethodExact,
		Fingerprint: plan.query.key,
	}
	if plan.kMin == -1 {
		resp.Nines = MaxNines
		return resp, nil
	}
	ar, _, err := s.analyzeQuery(plan.query, tr, true)
	if err != nil {
		return TailResponse{}, err
	}
	switch plan.event {
	case EventUnsafe:
		resp.P = 1 - ar.Safe
	case EventNotLive:
		resp.P = 1 - ar.Live
	default:
		resp.P = 1 - ar.SafeAndLive
	}
	if resp.P < 0 {
		resp.P = 0
	}
	resp.Nines = jsonNines(1 - resp.P)
	resp.Work = plan.estimate
	return resp, nil
}

// tailImportance answers through the trinomial importance sampler,
// tilted so the expected failure count reaches the event's minimal
// achievable count. The engine worker pool gates the run like any other
// compute.
func (s *Server) tailImportance(plan tailPlan, tr *obs.Trace) (TailResponse, error) {
	return withWorker(s, func() (TailResponse, error) {
		sstart := time.Now()
		defer tr.Since("sample", sstart)
		// The sampler's (profiles, membership, domains) view of the query.
		member, err := core.ResolveDomains(plan.query.fleet, plan.query.domains)
		if err != nil {
			return TailResponse{}, err
		}
		prof, doms := plan.query.fleet.Profiles(), []faultcurve.Domain(plan.query.domains)
		withShocks := false
		for _, d := range doms {
			if d.ShockProb > 0 && d.ShockProb < 1 {
				withShocks = true
			}
		}
		tilt := montecarlo.TiltForCount(prof, plan.kMin, withShocks)
		est, err := montecarlo.RunImportanceTri(prof, member, doms, tilt, plan.pred, plan.samples, plan.seed)
		if err != nil {
			return TailResponse{}, fmt.Errorf("importance sampling failed: %w", err)
		}
		resp := TailResponse{
			Model:            modelName(plan.query.model),
			Event:            plan.event,
			Method:           MethodImportance,
			P:                est.P,
			Nines:            jsonNines(1 - est.P),
			StdErr:           est.StdErr,
			Samples:          est.Samples,
			EffectiveSamples: est.EffectiveSamples,
			Work:             float64(est.Samples) * float64(len(plan.query.fleet)),
			Fingerprint:      plan.query.key,
		}
		if est.P > 0 {
			resp.RelCI99 = dist.Z99 * est.StdErr / est.P
		}
		return resp, nil
	})
}
