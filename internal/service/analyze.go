package service

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// analyzeEntry is the analyze cache's value: the response as computed
// (Cached false, no debug block) and, once a plain hit has been served from
// it, the body every later plain hit is answered with. Entries are shared
// by pointer between the cache and its readers, so resp is never written
// after insert and body is only ever published, never replaced.
type analyzeEntry struct {
	resp AnalyzeResponse
	body atomic.Pointer[[]byte]
}

// hitBody returns the body a plain L1 hit on e is answered with — resp,
// which is e.resp with Cached set, through the encoder every response goes
// through — encoding and publishing it if this is the first such hit.
// Racing first hits encode the same bytes and all return the one that was
// published. nil means resp does not encode; writeJSON reports why.
func (e *analyzeEntry) hitBody(resp AnalyzeResponse) []byte {
	if b := e.body.Load(); b != nil {
		return *b
	}
	buf := getBody()
	defer putBody(buf)
	if err := encodeJSON(buf, resp); err != nil {
		return nil
	}
	b := bytes.Clone(buf.Bytes())
	e.body.CompareAndSwap(nil, &b)
	return *e.body.Load()
}

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
	resp, _, err := s.analyzeTraced(req, nil)
	return resp, err
}

// analyzeServed is the HTTP handler's call: analyzeTraced, plus the stored
// body when the answer is a plain L1 hit. Every other answer — a debugged
// request, a miss, a tier answer, a coalesced wait — is encoded by the
// handler, so a miss encodes exactly once.
func (s *Server) analyzeServed(req AnalyzeRequest, tr *obs.Trace) (AnalyzeResponse, []byte, error) {
	resp, hit, err := s.analyzeTraced(req, tr)
	if err != nil || hit == nil || req.Debug {
		return resp, nil, err
	}
	return resp, hit.hitBody(resp), nil
}

// analyzeTraced is Analyze with the request's flight-recorder trace
// threaded through (nil for direct library and benchmark calls — every
// recording method no-ops on nil). HTTP requests always carry a trace, so
// every request produces a span tree whether or not the caller asked for
// the debug block. hit is the cache entry when L1 answered, else nil.
func (s *Server) analyzeTraced(req AnalyzeRequest, tr *obs.Trace) (resp AnalyzeResponse, hit *analyzeEntry, err error) {
	if tr == nil && req.Debug {
		tr = &obs.Trace{} // ephemeral recorder for direct debugged calls
	}
	p, err := planAnalyze(req, tr)
	if err != nil {
		return AnalyzeResponse{}, nil, err
	}
	resp, hit, err = s.analyzeQuery(p, tr, true)
	if err != nil {
		return AnalyzeResponse{}, nil, err
	}
	if req.Debug {
		resp.Debug = &DebugInfo{RequestID: tr.ID, Cache: tr.Cache, Spans: spanViews(tr.AllSpans())}
	}
	return resp, hit, nil
}

// analyzeQuery answers one planned query through the analyze cache,
// caching the fully-rendered response so hits skip percent/nines
// formatting too; hit is the cache entry when L1 answered, else nil.
// allowL2=false is the peer-serving path (L2Exec): the owner computes
// locally, so an ownership disagreement between peers degrades to a local
// compute instead of an RPC loop.
func (s *Server) analyzeQuery(p analyzePlan, tr *obs.Trace, allowL2 bool) (resp AnalyzeResponse, hit *analyzeEntry, err error) {
	start := time.Now()
	var peer func() (*analyzeEntry, bool)
	if allowL2 && s.l2 != nil {
		peer = func() (*analyzeEntry, bool) { return s.l2Fetch(p, tr) }
	}
	e, verdict, err := cachedRun(s.cache, p.key, tr, peer, func() (*analyzeEntry, error) {
		res, err := withWorker(s, func() (core.Result, error) {
			estart := time.Now()
			defer tr.Since("engine", estart)
			return s.analyze(p.fleet, p.model, p.domains)
		})
		if err != nil {
			return nil, err
		}
		return &analyzeEntry{resp: newAnalyzeResponse(p.model, res, p.key, false)}, nil
	})
	if err != nil {
		return AnalyzeResponse{}, nil, fmt.Errorf("analysis failed: %w", err)
	}
	// A tier answer is a cache hit from the caller's point of view: some
	// member's cache (or singleflight) produced it without local engine
	// work. The value stored in L1 stays Cached=false, like any insert.
	resp = e.resp
	resp.Cached = verdict == verdictHit || verdict == verdictPeer
	if resp.Cached {
		s.m.analyzeHit.ObserveSince(start)
	} else {
		s.m.analyzeMiss.ObserveSince(start)
	}
	if verdict == verdictHit {
		hit = e
	}
	return resp, hit, nil
}

// answerQuery keys and answers an already-validated query: what a sweep
// cell or a paper-table row needs.
func (s *Server) answerQuery(fleet core.Fleet, m core.CountModel, domains core.DomainSet) (AnalyzeResponse, error) {
	p, err := keyQuery(fleet, m, domains, nil)
	if err != nil {
		return AnalyzeResponse{}, err
	}
	resp, _, err := s.analyzeQuery(p, nil, true)
	return resp, err
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
	writeJSON(w, r, http.StatusOK, resp)
}
