package core

// Query is one analysis query — a fleet, a protocol model and its failure
// domains — resolved once. Resolve checks it and resolves its domain
// layout; the work estimate (Work), the cache key (Fingerprint), the
// sampler's membership view (Members) and the engine (AnalyzeQuery) all
// read that one layout instead of resolving their own.
//
// The zero value is ready. A Query keeps its layout and key buffers from
// one Resolve to the next, so a reused Query resolves and fingerprints
// without allocating beyond the key string — the serving layer keeps one
// per request slot. The pieces both its fingerprint and the domain
// engine's rest keys hash are encoded at their first use after Resolve
// and reused (a served miss sorts each zone once); a domain-free engine
// run encodes nothing. A Query is not safe for concurrent use, and it
// refers to the fleet and domains it was resolved with until it is
// resolved again. Its fields are what Resolve was given: read them, and
// change them only through Resolve. Only the probabilities in them — node
// profiles, domain shocks and multipliers — may change in place, between
// Gradient calls (which read no key); Fingerprint and AnalyzeQuery see
// such a change only after Resolve.
type Query struct {
	Fleet   Fleet
	Model   CountModel
	Domains DomainSet

	layout domainLayout
	enc    fingerprintEncoder
}

// Resolve makes q the query (fleet, m, domains): it checks that the model
// fits the fleet and resolves the domain layout, with the errors (and
// wording) of every other entry point. Profiles are not checked here —
// validate them first with Fleet.Validate; the serving layer checks each
// node as it builds the fleet, in the wire's words, so that a request's
// profiles are validated once.
func (q *Query) Resolve(fleet Fleet, m CountModel, domains DomainSet) error {
	q.Fleet, q.Model, q.Domains = fleet, m, domains
	q.enc.indepEnd = 0 // the key pieces are encoded at their first use
	if err := checkSize(fleet, m); err != nil {
		return err
	}
	return q.layout.resolve(fleet, domains)
}

// resolveValid is Resolve with the fleet's profiles validated too, between
// the size check and the layout: the check every one-shot entry point runs.
func (q *Query) resolveValid(fleet Fleet, m CountModel, domains DomainSet) error {
	if err := checkSize(fleet, m); err != nil {
		return err
	}
	if err := fleet.Validate(); err != nil {
		return err
	}
	return q.Resolve(fleet, m, domains)
}

// Work returns the estimated engine cost of AnalyzeQuery in cell updates —
// the unit the serving layer's work bounds are denominated in. A populated
// layout is priced from the model's region tables (domainLayout.work). A
// domain-free query is priced at n^3, the joint table's cost: an upper
// bound on its region pass, O(n·(β+1)·(κ+1)), kept so that /v1/tail's
// choice between the exact engine and the sampler does not move until that
// dispatch is re-derived.
func (q *Query) Work() float64 { return q.layout.price(len(q.Fleet), q.Model) }

// Members returns, for each node, the index of its domain in q.Domains, or
// -1 for independent nodes — the membership encoding of the sampler kernel
// (montecarlo.Draws). The slice is fresh.
func (q *Query) Members() []int { return q.layout.members(len(q.Fleet)) }

// AnalyzeQuery computes the exact Result of a resolved query on a pooled
// Evaluator: AnalyzeDomains without resolving the query again.
func AnalyzeQuery(q *Query) Result { return defaultEvaluators.AnalyzeQuery(q) }
