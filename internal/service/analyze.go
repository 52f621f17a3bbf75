package service

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// analyzePlan is one validated analyze query with its cache key, the
// canonical fleet+model+domains fingerprint.
type analyzePlan struct {
	fleet   core.Fleet
	model   core.CountModel
	domains core.DomainSet
	key     string
}

// planAnalyze resolves, validates, work-bounds and keys one analyze
// request. All errors are client errors.
func planAnalyze(req AnalyzeRequest, tr *obs.Trace) (analyzePlan, error) {
	start := time.Now()
	fleet, m, domains, err := req.Query()
	if err != nil {
		return analyzePlan{}, badRequest(err)
	}
	tr.Since("resolve", start)
	return keyQuery(fleet, m, domains, tr)
}

// keyQuery plans an already-validated query: sweep cells, the paper
// tables and request plans all key through here.
func keyQuery(fleet core.Fleet, m core.CountModel, domains core.DomainSet, tr *obs.Trace) (analyzePlan, error) {
	start := time.Now()
	fp, err := core.FleetModelDomainsFingerprint(fleet, m, domains)
	if err != nil {
		return analyzePlan{}, badRequest(err)
	}
	tr.Since("fingerprint", start)
	return analyzePlan{fleet: fleet, model: m, domains: domains, key: fp.String()}, nil
}

// Analyze resolves, validates, and answers one analyze query through the
// analyze cache. It is the handler's core and the service benchmark
// entry point.
func (s *Server) Analyze(req AnalyzeRequest) (AnalyzeResponse, error) {
	return s.analyzeTraced(req, nil)
}

// analyzeTraced is Analyze with the request's flight-recorder trace
// threaded through (nil for direct library and benchmark calls — every
// recording method no-ops on nil). HTTP requests always carry a trace, so
// every request produces a span tree whether or not the caller asked for
// the debug block.
func (s *Server) analyzeTraced(req AnalyzeRequest, tr *obs.Trace) (AnalyzeResponse, error) {
	if tr == nil && req.Debug {
		tr = &obs.Trace{} // ephemeral recorder for direct debugged calls
	}
	p, err := planAnalyze(req, tr)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	resp, err := s.analyzeQuery(p, tr, true)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	if req.Debug {
		resp.Debug = &DebugInfo{RequestID: tr.ID, Cache: tr.Cache, Spans: spanViews(tr.AllSpans())}
	}
	return resp, nil
}

// analyzeQuery answers one planned query through the analyze cache,
// caching the fully-rendered response so hits skip percent/nines
// formatting too. allowL2=false is the peer-serving path (L2Exec): the
// owner computes locally, so an ownership disagreement between peers
// degrades to a local compute instead of an RPC loop.
func (s *Server) analyzeQuery(p analyzePlan, tr *obs.Trace, allowL2 bool) (AnalyzeResponse, error) {
	start := time.Now()
	var peer func() (AnalyzeResponse, bool)
	if allowL2 && s.l2 != nil {
		peer = func() (AnalyzeResponse, bool) { return s.l2Fetch(p, tr) }
	}
	resp, verdict, err := cachedRun(s.cache, p.key, tr, peer, func() (AnalyzeResponse, error) {
		res, err := withWorker(s, func() (core.Result, error) {
			estart := time.Now()
			defer tr.Since("engine", estart)
			return s.analyze(p.fleet, p.model, p.domains)
		})
		if err != nil {
			return AnalyzeResponse{}, err
		}
		return newAnalyzeResponse(p.model, res, p.key, false), nil
	})
	if err != nil {
		return AnalyzeResponse{}, fmt.Errorf("analysis failed: %w", err)
	}
	// A tier answer is a cache hit from the caller's point of view: some
	// member's cache (or singleflight) produced it without local engine
	// work. The value stored in L1 stays Cached=false, like any insert.
	resp.Cached = verdict == verdictHit || verdict == verdictPeer
	if resp.Cached {
		s.m.analyzeHit.ObserveSince(start)
	} else {
		s.m.analyzeMiss.ObserveSince(start)
	}
	return resp, nil
}

// answerQuery keys and answers an already-validated query: what a sweep
// cell or a paper-table row needs.
func (s *Server) answerQuery(fleet core.Fleet, m core.CountModel, domains core.DomainSet) (AnalyzeResponse, error) {
	p, err := keyQuery(fleet, m, domains, nil)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	return s.analyzeQuery(p, nil, true)
}

// Tables regenerates the paper's Tables 1–2 through the cache: the first
// call computes 4 + 16 analyses, every later call is all cache hits.
func (s *Server) Tables() (TablesResponse, error) {
	var out TablesResponse
	for _, m := range core.Table1Configs() {
		const pu = 0.01
		resp, err := s.answerQuery(core.UniformByzFleet(m.NNodes, pu), m, nil)
		if err != nil {
			return TablesResponse{}, err
		}
		out.Table1 = append(out.Table1, tableRow(resp, pu))
	}
	for _, n := range core.Table2Sizes() {
		m := core.NewRaft(n)
		for _, pu := range core.Table2PUs() {
			resp, err := s.answerQuery(core.UniformCrashFleet(n, pu), m, nil)
			if err != nil {
				return TablesResponse{}, err
			}
			out.Table2 = append(out.Table2, tableRow(resp, pu))
		}
	}
	return out, nil
}

func tableRow(resp AnalyzeResponse, pu float64) TableRowView {
	return TableRowView{
		Model:       resp.Model,
		PU:          pu,
		Safe:        resp.Safe,
		Live:        resp.Live,
		SafeAndLive: resp.SafeAndLive,
		Percent:     resp.Percent,
	}
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.m.req["tables"].Inc()
	tstart := time.Now()
	resp, err := s.Tables()
	TraceFrom(r.Context()).Since("tables", tstart)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
