package service

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the request scratch: what a POST request is read into,
// decoded into and what its queries are resolved into, pooled per
// endpoint, so that a stream of misses reuses one set of body buffers,
// decode targets, fleets, domain layouts and fingerprint buffers instead
// of allocating them for every request (DESIGN.md "Miss-path allocation
// budget").
//
// The lifetime rule: nothing that outlives the request refers to its
// scratch. handlePost returns the scratch to the pool after the response
// is written, and everything that leaves a request is built fresh:
//
//   - an L1 entry is a new analyzeEntry of the Result and the key string,
//     and singleflight waiters and later hits get that entry;
//   - batch jobs run inside the request: batchTraced joins them all;
//   - a trace holds span names, the verdict, error strings and keys;
//   - the sweep stream's target is not pooled (scheduled cells outlive a
//     disconnected client's handler), and each cell takes its own scratch.
//
// Strings may leave a request (response labels, the key): they are
// immutable, and the scratch only ever drops or replaces its references to
// them. TestScratchLifetime checks the rule against fresh servers.

// queryScratch is one query's reusable state: the fleet and domains built
// from the wire, and their resolution.
type queryScratch struct {
	fleet   core.Fleet
	domains core.DomainSet
	q       core.Query
}

// scratch hands out query slots: one to an analyze, tail or optimize
// request or a sweep cell, one to each such item of a batch.
type scratch struct {
	queries []*queryScratch
	used    int
}

// maxPooledQueries and maxPooledNodes are the retention rule of both
// scratch pools (handlePost's and scratchPool): a scratch that has served
// more query slots, or fleets of more nodes over all its slots, than a
// large single request needs is dropped rather than pooled. A slot keeps
// the largest fleet it resolved, with its names, layout and fingerprint
// buffers, about 100 B a node; so a pooled scratch pins at most ~100 KB,
// and a batch of large fleets (up to 256 slots of 1024 nodes) pins nothing.
const (
	maxPooledQueries = 16
	maxPooledNodes   = 1024
)

// scratchPool serves the calls that come without a handlePost entry: the
// library entry points (Server.Analyze and its siblings) and sweep
// cells. Each call holds its scratch until it returns.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if sc.reset() {
		scratchPool.Put(sc)
	}
}

// reset readies sc for its next request and reports whether it is small
// enough to pool (maxPooledQueries, maxPooledNodes).
func (sc *scratch) reset() bool {
	sc.used = 0
	if len(sc.queries) > maxPooledQueries {
		return false
	}
	nodes := 0
	for _, qs := range sc.queries {
		nodes += cap(qs.fleet)
	}
	return nodes <= maxPooledNodes
}

func (sc *scratch) query() *queryScratch {
	if sc.used == len(sc.queries) {
		sc.queries = append(sc.queries, new(queryScratch))
	}
	qs := sc.queries[sc.used]
	sc.used++
	return qs
}

// pooled is one pool entry of a POST endpoint, and what the endpoint's
// call is handed: the body as read and when reading it began, the decode
// target and the scratch. The body buffer belongs to the entry, so it
// stays sized for the endpoint's bodies, as the target does.
type pooled[Q any] struct {
	body  bytes.Buffer
	start time.Time
	req   Q
	sc    scratch
}

// postCall is a POST endpoint's call, on its pooled entry and the
// request's trace. A call that returns a body has it sent as is, in place
// of encoding the response.
type postCall[Q, R any] func(*pooled[Q], *obs.Trace) (R, []byte, error)

// handlePost is the body of every JSON-in, JSON-out POST endpoint: the
// request counted and its size-bounded body read once into the pooled
// entry, the endpoint's call on that entry, and the response or its
// error rendered as JSON. The entry goes back to the pool once the
// response is written, unless its body buffer grew past a pooled one's
// cap (maxPooledBody) or the scratch outgrew the retention rule
// (scratch.reset): what a large request reads, decodes or resolves into
// is not worth pinning.
func handlePost[Q, R any](count *obs.Counter, limit int64, call postCall[Q, R]) func(http.ResponseWriter, *http.Request, *obs.Trace) {
	var pool sync.Pool
	return func(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
		p, _ := pool.Get().(*pooled[Q])
		if p == nil {
			p = new(pooled[Q])
		}
		p.body.Reset()
		p.start = time.Now()
		if err := readBody(count, limit, w, r, &p.body); err != nil {
			tr.Since("decode", p.start)
			writeError(w, tr, err)
		} else {
			resp, body, err := call(p, tr)
			switch {
			case err != nil:
				writeError(w, tr, err)
			case body != nil:
				writeBody(w, http.StatusOK, body)
			default:
				writeJSON(w, tr, http.StatusOK, resp)
			}
		}
		if p.body.Cap() <= maxPooledBody && p.sc.reset() {
			pool.Put(p)
		}
	}
}

// decoded adapts a traced call on the decoded request to handlePost: the
// body is decoded into the pooled target first, reading and decoding
// recorded together as the trace's decode span.
func decoded[Q, R any](call func(Q, *scratch, *obs.Trace) (R, []byte, error)) postCall[Q, R] {
	return func(p *pooled[Q], tr *obs.Trace) (R, []byte, error) {
		err := decodeRequest(p.body.Bytes(), &p.req)
		tr.Since("decode", p.start)
		if err != nil {
			var zero R
			return zero, nil, err
		}
		return call(p.req, &p.sc, tr)
	}
}

// encoded adapts a traced call that stores no bodies to decoded: its
// responses are always encoded.
func encoded[Q, R any](call func(Q, *scratch, *obs.Trace) (R, error)) func(Q, *scratch, *obs.Trace) (R, []byte, error) {
	return func(req Q, sc *scratch, tr *obs.Trace) (R, []byte, error) {
		resp, err := call(req, sc, tr)
		return resp, nil, err
	}
}
