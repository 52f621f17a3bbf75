package service

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// The serving side of the fleet cache tier. A Server with Options.L2 set
// consults the owning peer before computing an L1 miss, and implements
// qcache.L2Handler so a qcache.PeerServer can serve this Server's L1 to
// the rest of the fleet. Ownership, routing, and the wire protocol live
// in internal/qcache; this file translates between analyze queries and
// wire payloads.
//
// Consistency model: the tier is a best-effort accelerator. Every value
// is derived deterministically from its fingerprint key, so a stale or
// missing peer can only cost a recompute, never a wrong answer —
// correctness never depends on the tier.

// L2Tier routes keys to owning peers. *qcache.PeerClient implements it;
// the indirection keeps tests free to fake the fleet.
type L2Tier interface {
	// Self returns this member's address.
	Self() string
	// Peers returns the full member list, including self.
	Peers() []string
	// SelfOwns reports whether this member owns key.
	SelfOwns(key string) bool
	// Exec asks the owner to answer payload for key, computing under the
	// owner's singleflight on a miss.
	Exec(key string, payload []byte) (val []byte, ok bool, err error)
}

// wireAnalyzeRequest reconstructs a wire request from a resolved query so
// the owning peer can re-validate and recompute it independently. Node
// names are dropped (the canonical fingerprint excludes them) and quorums
// are spelled explicitly, so the peer resolves the exact same model. ok
// is false for model types that have no wire spelling — those queries
// simply skip the tier.
func wireAnalyzeRequest(fleet core.Fleet, m core.CountModel, domains core.DomainSet) (AnalyzeRequest, bool) {
	var ms ModelSpec
	switch mm := m.(type) {
	case core.Raft:
		ms = ModelSpec{Protocol: "raft", N: mm.NNodes, QPer: mm.QPer, QVC: mm.QVC}
	case core.PBFT:
		ms = ModelSpec{Protocol: "pbft", N: mm.NNodes, QPer: mm.QPer, QVC: mm.QVC, QEq: mm.QEq, QVCT: mm.QVCT}
	default:
		return AnalyzeRequest{}, false
	}
	nodes := make([]NodeSpec, len(fleet))
	for i, n := range fleet {
		nodes[i] = NodeSpec{PCrash: n.Profile.PCrash, PByz: n.Profile.PByz, Domain: n.Domain}
	}
	var specs []DomainSpec
	if len(domains) > 0 {
		specs = make([]DomainSpec, len(domains))
		for i, d := range domains {
			cm, bm := d.CrashMultiplier, d.ByzMultiplier
			specs[i] = DomainSpec{Name: d.Name, Shock: d.ShockProb, CrashMult: &cm, ByzMult: &bm}
		}
	}
	return AnalyzeRequest{Model: ms, Fleet: nodes, Domains: specs}, true
}

// l2Fetch consults the owning peer for a planned query. It runs inside
// the local L1 singleflight but before a worker slot is taken — a peer
// wait must not pin an engine worker — so at most one fetch per key is in
// flight here; the owner's own singleflight dedups across the fleet.
// Returns ok=false (compute locally) whenever the tier cannot help:
// self-owned keys, transport failures, or responses that fail to decode.
func (s *Server) l2Fetch(p analyzePlan, tr *obs.Trace) (*analyzeEntry, bool) {
	if s.l2.SelfOwns(p.key) {
		s.m.l2Local.Inc()
		return nil, false
	}
	req, ok := wireAnalyzeRequest(p.fleet, p.model, p.domains)
	if !ok {
		s.m.l2Local.Inc()
		return nil, false
	}
	payload, err := json.Marshal(req)
	if err != nil {
		s.m.l2Errors.Inc()
		return nil, false
	}
	fstart := time.Now()
	val, ok, err := s.l2.Exec(p.key, payload)
	tr.Since("l2_exec", fstart)
	if err != nil || !ok {
		if err != nil {
			s.m.l2Errors.Inc()
			tr.Event("l2_error", err.Error())
		} else {
			s.m.l2Misses.Inc()
		}
		return nil, false
	}
	e, err := unmarshalCached(p.key, val)
	if err != nil {
		s.m.l2Errors.Inc()
		return nil, false
	}
	s.m.l2Hits.Inc()
	return e, true
}

// marshalCached renders a cached analyze response for the wire or a dump
// file: Cached and Debug are per-request decorations, never part of the
// transferable value.
func marshalCached(resp AnalyzeResponse) ([]byte, error) {
	resp.Cached = false
	resp.Debug = nil
	return json.Marshal(resp)
}

// unmarshalCached is marshalCached's inverse for a value arriving under
// key — a peer's answer, a warmed put, a dump entry — as the cache entry to
// insert. The value must decode and carry key as its fingerprint, so
// nothing can be planted under a foreign key; it is not re-verified
// against the engine.
func unmarshalCached(key string, val []byte) (*analyzeEntry, error) {
	e := new(analyzeEntry)
	if err := json.Unmarshal(val, &e.resp); err != nil {
		return nil, err
	}
	if e.resp.Fingerprint != key {
		return nil, fmt.Errorf("key %s does not match value fingerprint %s", key, e.resp.Fingerprint)
	}
	e.resp.Cached = false
	e.resp.Debug = nil
	return e, nil
}

// L2Get implements qcache.L2Handler: the local L1 lookup peers hit.
func (s *Server) L2Get(key string) ([]byte, bool) {
	e, ok := s.cache.Get(key)
	if !ok {
		s.m.l2ServeGetMiss.Inc()
		return nil, false
	}
	b, err := marshalCached(e.resp)
	if err != nil {
		s.m.l2ServeGetMiss.Inc()
		return nil, false
	}
	s.m.l2ServeGetHit.Inc()
	return b, true
}

// L2Exec implements qcache.L2Handler: answer a peer's query for a key
// this member owns, computing under the local singleflight on a miss.
// The carried request is re-validated from scratch and its fingerprint
// must match the key — a peer cannot plant a value under a foreign key.
func (s *Server) L2Exec(key string, payload []byte) (val []byte, err error) {
	defer func() {
		if err != nil {
			s.m.l2ServeExecErr.Inc()
		} else {
			s.m.l2ServeExecOK.Inc()
		}
	}()
	var req AnalyzeRequest
	if err := decodeRequest(payload, &req); err != nil {
		return nil, fmt.Errorf("l2 exec payload: %w", err)
	}
	p, err := planAnalyze(req, nil)
	if err != nil {
		return nil, fmt.Errorf("l2 exec query: %w", err)
	}
	if p.key != key {
		return nil, fmt.Errorf("l2 exec key %s does not match query fingerprint %s", key, p.key)
	}
	// allowL2=false: the owner computes locally. Under a misconfigured
	// fleet (peers disagreeing about ownership) this breaks what would
	// otherwise be an RPC loop.
	resp, _, err := s.analyzeQuery(p, nil, false)
	if err != nil {
		return nil, err
	}
	return marshalCached(resp)
}

// L2Put implements qcache.L2Handler: accept a warmed value for a key this
// member owns (same trust model as -cache-load).
func (s *Server) L2Put(key string, val []byte) error {
	e, err := unmarshalCached(key, val)
	if err != nil {
		s.m.l2ServePutErr.Inc()
		return fmt.Errorf("l2 put: %w", err)
	}
	s.cache.Put(key, e)
	s.m.l2ServePutOK.Inc()
	return nil
}

// L2Stats is the /statsz view of the tier, present only when one is
// configured.
type L2Stats struct {
	Self   string `json:"self"`
	Peers  int    `json:"peers"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
	Errors int64  `json:"errors"`
	Local  int64  `json:"local"`
	// Served counts requests this member answered for its peers, by op.
	ServedGet  int64 `json:"served_get"`
	ServedExec int64 `json:"served_exec"`
	ServedPut  int64 `json:"served_put"`
}

// l2Stats snapshots the tier counters, or nil without a tier.
func (s *Server) l2Stats() *L2Stats {
	if s.l2 == nil {
		return nil
	}
	return &L2Stats{
		Self:       s.l2.Self(),
		Peers:      len(s.l2.Peers()),
		Hits:       s.m.l2Hits.Load(),
		Misses:     s.m.l2Misses.Load(),
		Errors:     s.m.l2Errors.Load(),
		Local:      s.m.l2Local.Load(),
		ServedGet:  s.m.l2ServeGetHit.Load() + s.m.l2ServeGetMiss.Load(),
		ServedExec: s.m.l2ServeExecOK.Load() + s.m.l2ServeExecErr.Load(),
		ServedPut:  s.m.l2ServePutOK.Load() + s.m.l2ServePutErr.Load(),
	}
}

// Compile-time check: a Server is servable as a peer.
var _ qcache.L2Handler = (*Server)(nil)
