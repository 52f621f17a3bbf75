package service

import (
	"hash/maphash"
	"time"

	"repro/internal/obs"
)

// bodyIndex maps the raw bytes of an analyze body to the L1 key its query
// resolved to, so that a byte-identical repeat is answered from its L1
// entry without being decoded, resolved or fingerprinted (DESIGN.md
// "Response encoding and the access log").
//
// A body is known by its length and two 64-bit maphash sums under seeds
// drawn when the index is made, 128 bits that never leave the process.
// The first sum and the length key the map; the second is checked only
// when the first finds an entry, so a body the index does not hold costs
// one pass over its bytes. Two different bodies of one length agree on
// both sums with probability 2⁻¹²⁸, so a request is answered for another
// body with probability at most capacity·2⁻¹²⁸.
//
// A mapping is installed only by a plain L1 hit answered with its stored
// body, so a body enters on its second arrival and a stream of misses
// never writes here. The index holds at most the L1's capacity in
// mappings; a put that finds it full clears it (memoMap).
type bodyIndex struct {
	seeds [2]maphash.Seed
	keys  memoMap[bodyKey, bodyEntry]
}

type bodyKey struct {
	sum uint64 // under seeds[0]
	n   int
}

type bodyEntry struct {
	check uint64 // the body's sum under seeds[1]
	key   string // its L1 key
}

func newBodyIndex(capacity int) *bodyIndex {
	return &bodyIndex{
		seeds: [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		keys:  memoMap[bodyKey, bodyEntry]{cap: capacity},
	}
}

// lookup returns the L1 key body is mapped to, if any, and body's map key.
func (x *bodyIndex) lookup(body []byte) (k bodyKey, key string, ok bool) {
	k = bodyKey{maphash.Bytes(x.seeds[0], body), len(body)}
	e, ok := x.keys.get(k)
	if !ok || e.check != maphash.Bytes(x.seeds[1], body) {
		return k, "", false
	}
	return k, e.key, true
}

// put maps body, whose map key is k, to the L1 key key.
func (x *bodyIndex) put(k bodyKey, body []byte, key string) {
	x.keys.put(k, bodyEntry{maphash.Bytes(x.seeds[1], body), key})
}

// indexed puts the body index in front of analyze's decoded call. A body
// the index knows whose L1 entry is still held is a plain hit answered
// from that entry: its stored body, or the one hitBody encodes and
// publishes when the entry was recomputed since. Every other body takes
// call, and one that call answers with a stored body is installed.
//
// Either way a request counts one L1 outcome: Get counts the hit it
// finds and nothing when the entry is gone, and call's lookup counts its
// own.
func (s *Server) indexed(call postCall[AnalyzeRequest, AnalyzeResponse]) postCall[AnalyzeRequest, AnalyzeResponse] {
	return func(p *pooled[AnalyzeRequest], tr *obs.Trace) (AnalyzeResponse, []byte, error) {
		k, key, ok := s.index.lookup(p.body.Bytes())
		if ok {
			start := time.Now()
			if e, ok := s.cache.Get(key); ok {
				resp := e.resp
				resp.Cached = true
				body := e.hitBody(resp)
				s.m.analyzeHit.ObserveSince(start)
				s.m.indexHits.Inc()
				tr.Since("cache_lookup", start)
				tr.SetCache(verdictHit)
				return resp, body, nil
			}
		}
		resp, body, err := call(p, tr)
		if body != nil {
			s.index.put(k, p.body.Bytes(), resp.Fingerprint)
		}
		return resp, body, err
	}
}
