package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/qcache"
	"repro/internal/service"
)

// This file is the traced run: the workload's request stream replayed
// in-process through each layer's public functions, one span per call,
// plus workload-independent probes of the layers no workload isolates.
// Everything is timed from here, around the calls; the program under test
// is not edited.

// span is one timed call into a layer.
type span struct {
	Stream string `json:"stream"` // workload name, or "probe"
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request index in the stream
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	class  int
}

// recorder keeps spans in memory until the benchmark ends. With on=false
// every method is a no-op around the call, which is how the untraced replay
// prices the recording itself.
type recorder struct {
	on     bool
	stream string
	t0     time.Time
	spans  []span
}

// do runs fn inside a span and returns the span's index for fn's children.
func (r *recorder) do(name string, req, class, parent int, fn func(id int)) {
	if !r.on {
		fn(-1)
		return
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Stream: r.stream, Name: name, Req: req, Parent: parent, class: class, Start: int64(time.Since(r.t0))})
	fn(id)
	r.spans[id].End = int64(time.Since(r.t0))
}

// micros returns the durations of the named spans in microseconds, of one
// class or (class < 0) all.
func (r *recorder) micros(name string, class int) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (class < 0 || s.class == class) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (r *recorder) p50(name string) float64 { return median(r.micros(name, -1)) }

// writeSpans dumps every recorder's spans as one JSON array.
func writeSpans(path string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		// Parent indexes are per recorder; rebase them onto the joined list.
		base := len(all)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers holds the in-process twins of what the daemon runs: two servers
// with the daemon's defaults (one driven through its methods, one through
// its HTTP handler, so neither warms the other's caches), and the bench's
// own fingerprint -> cache -> engine chain built from the same public
// parts, whose spans split a request into layers.
type layers struct {
	call    *service.Server
	handler http.Handler
	cache   *qcache.Cache[service.AnalyzeResponse]
	pool    *core.EvaluatorPool
}

func newLayers() *layers {
	// The daemon's default access log is text on stderr; the handler twin
	// formats the same lines into the void.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return &layers{
		call:    service.New(service.Options{}),
		handler: service.New(service.Options{Logger: logger}).Handler(),
		cache:   qcache.New[service.AnalyzeResponse](4096, 16),
		pool:    core.NewEvaluatorPool(),
	}
}

// decoded is a request body decoded into its endpoint's type: how to call
// the server with it, and (for requests that carry one) its fleet/model/
// domains block as an analyze query.
type decoded struct {
	call  func(*service.Server) (any, error)
	query *service.AnalyzeRequest
}

func decodeRequest(req request) (decoded, error) {
	switch req.class {
	case classAnalyze:
		var q service.AnalyzeRequest
		err := decodeStrict(req.body, &q)
		return decoded{func(s *service.Server) (any, error) { return s.Analyze(q) }, &q}, err
	case classOptimize:
		var q service.OptimizeRequest
		err := decodeStrict(req.body, &q)
		return decoded{func(s *service.Server) (any, error) { return s.Optimize(q) },
			&service.AnalyzeRequest{Model: q.Model, Fleet: q.Fleet, P: q.P, Domains: q.Domains}}, err
	case classTailExact, classTailImportance:
		var q service.TailRequest
		err := decodeStrict(req.body, &q)
		return decoded{func(s *service.Server) (any, error) { return s.Tail(q) },
			&service.AnalyzeRequest{Model: q.Model, Fleet: q.Fleet, P: q.P, Domains: q.Domains}}, err
	case classSweep:
		var q service.SweepRequest
		err := decodeStrict(req.body, &q)
		return decoded{func(s *service.Server) (any, error) { return nil, s.Sweep(context.Background(), q, io.Discard) }, nil}, err
	case classBatch:
		var q service.BatchRequest
		err := decodeStrict(req.body, &q)
		return decoded{func(s *service.Server) (any, error) { return s.Batch(q) }, nil}, err
	}
	return decoded{}, fmt.Errorf("no decoder for class %d", req.class)
}

// coldSamples is how many requests of a replay also get the from-scratch
// measurements (a fresh evaluator, a bare DP build and fold), evenly spread:
// each is tens of milliseconds on the large fleets.
const coldSamples = 25

// replay pushes requests [from, from+n) of w through every layer in stream
// order, recording one span per layer call under a per-request root. Every
// coldEvery-th request (none when 0) also gets the from-scratch measurements.
func (l *layers) replay(w *workload, rec *recorder, from, n, coldEvery int) error {
	var fail error
	var enc bytes.Buffer
	for k := from; k < from+n && fail == nil; k++ {
		req := w.request(k)
		rec.do("request", k, req.class, -1, func(root int) {
			var d decoded
			rec.do("service.decode", k, req.class, root, func(int) { d, fail = decodeRequest(req) })
			if fail != nil {
				return
			}
			var resp any
			rec.do("service.call", k, req.class, root, func(int) { resp, fail = d.call(l.call) })
			if fail != nil {
				return
			}
			if resp != nil {
				rec.do("service.encode", k, req.class, root, func(int) {
					enc.Reset()
					e := json.NewEncoder(&enc)
					e.SetIndent("", "  ")
					fail = e.Encode(resp)
				})
			}
			hreq := httptest.NewRequest("POST", req.path(), bytes.NewReader(req.body))
			hrec := httptest.NewRecorder()
			rec.do("service.handler", k, req.class, root, func(int) { l.handler.ServeHTTP(hrec, hreq) })
			if err := quickCheck(req, hrec.Code, hrec.Body.Bytes()); err != nil {
				fail = err
			}
			if d.query == nil || fail != nil {
				return
			}
			var (
				fleet   core.Fleet
				m       core.CountModel
				domains core.DomainSet
				fp      core.Fingerprint
			)
			rec.do("service.resolve", k, req.class, root, func(int) { fleet, m, domains, fail = d.query.Query() })
			if fail != nil {
				return
			}
			rec.do("core.fingerprint", k, req.class, root, func(int) { fp, fail = core.FleetModelDomainsFingerprint(fleet, m, domains) })
			if fail != nil {
				return
			}
			rec.do("qcache.do", k, req.class, root, func(cache int) {
				_, _, fail = l.cache.Do(fp.String(), func() (service.AnalyzeResponse, error) {
					var res core.Result
					var err error
					rec.do("core.engine", k, req.class, cache, func(int) { res, err = l.pool.AnalyzeDomains(fleet, m, domains) })
					// Like the service, the cache holds the rendered answer,
					// so rendering is part of the cache's self time on a miss.
					return service.AnalyzeResponse{
						Model: m.Name(), Safe: res.Safe, Live: res.Live, SafeAndLive: res.SafeAndLive,
						Percent: service.PercentView{
							Safe:        dist.FormatPercent(res.Safe, 2),
							Live:        dist.FormatPercent(res.Live, 2),
							SafeAndLive: dist.FormatPercent(res.SafeAndLive, 2),
						},
						Nines:       math.Min(dist.Nines(res.SafeAndLive), service.MaxNines),
						Fingerprint: fp.String(),
					}, err
				})
			})
			if coldEvery == 0 || k%coldEvery != 0 || fail != nil {
				return
			}
			rec.do("core.engine_cold", k, req.class, root, func(int) { _, fail = core.NewEvaluator().AnalyzeDomains(fleet, m, domains) })
			tri := make([]dist.TriState, len(fleet))
			for i, node := range fleet {
				tri[i] = node.Profile.TriState()
			}
			var joint dist.JointCrashByz
			rec.do("dist.joint_build", k, req.class, root, func(int) { joint.Reset(tri) })
			rec.do("dist.tail_fold", k, req.class, root, func(int) { joint.SumWhere(func(c, b int) bool { return !m.Live(c, b) }) })
		})
	}
	return fail
}

// handlerAllocs replays n requests through the HTTP handler alone and
// returns heap allocations and bytes per request. Requests and recorders
// are built beforehand so only the handler's own garbage is counted.
func (l *layers) handlerAllocs(w *workload, from, n int) (allocs, bytesPer float64) {
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		req := w.request(from + i)
		reqs[i] = httptest.NewRequest("POST", req.path(), bytes.NewReader(req.body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		l.handler.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// batchSize is how many sub-microsecond operations one probe span covers,
// so the two clock reads of a span are noise against what it times.
const batchSize = 1000

// perOp runs reps spans of batchSize calls each and returns the median
// nanoseconds per call.
func perOp(rec *recorder, name string, reps int, fn func(i int)) float64 {
	i := 0
	for r := 0; r < reps; r++ {
		rec.do(name, r, -1, -1, func(int) {
			for b := 0; b < batchSize; b++ {
				fn(i)
				i++
			}
		})
	}
	return rec.p50(name) * 1e3 / batchSize
}

// hardeningProblem rebuilds the optimizer problem an optimize request
// states, from public parts — the same construction the service performs.
func hardeningProblem(q service.OptimizeRequest) (optimize.HardeningProblem, error) {
	fleet, m, domains, err := service.AnalyzeRequest{Model: q.Model, Fleet: q.Fleet, P: q.P, Domains: q.Domains}.Query()
	if err != nil {
		return optimize.HardeningProblem{}, err
	}
	p := optimize.HardeningProblem{Fleet: fleet, Model: m, Domains: domains, Budget: q.Budget, MaxPerNode: q.MaxSpend}
	for _, n := range fleet {
		p.Curves = append(p.Curves, faultcurve.HardeningResponse(n.Profile.PFail(), q.Curve.FloorFrac, q.Curve.Scale))
	}
	return p, p.Validate()
}

// nullPeer is the L2 handler of the loopback peer probe: a fixed cached
// value, so the probe times the wire path and nothing behind it.
type nullPeer struct{ val []byte }

func (p nullPeer) L2Get(string) ([]byte, bool)           { return p.val, true }
func (p nullPeer) L2Exec(string, []byte) ([]byte, error) { return p.val, nil }
func (p nullPeer) L2Put(string, []byte) error            { return nil }

// probes measures the layers whose cost does not depend on the workload,
// with inputs drawn from the solver_mix generator under the run's seed.
// It returns metric name -> value for the per-layer table.
func probes(rec *recorder, seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	solver := solverMix(seed)

	// Solver endpoints, one class at a time, through a fresh server.
	l := newLayers()
	const solverProbe = 60 // three cycles: 30 optimize, 12 exact tail, 9 sweep, 6 importance, 3 batch
	if err := l.replay(solver, rec, solver.warm, solverProbe, 0); err != nil {
		return nil, fmt.Errorf("solver probe: %w", err)
	}
	for class, name := range map[int]string{
		classOptimize: "service.optimize_p50_ms", classTailExact: "service.tail_exact_p50_ms",
		classTailImportance: "service.tail_importance_p50_ms", classSweep: "service.sweep_p50_ms", classBatch: "service.batch_p50_ms",
	} {
		out[name] = median(rec.micros("service.call", class)) / 1e3
	}
	// Dedup share of the batch class, read off a batch answer.
	for k := solver.warm; ; k++ {
		if req := solver.request(k); req.class == classBatch {
			var q service.BatchRequest
			if err := decodeStrict(req.body, &q); err != nil {
				return nil, err
			}
			resp, err := l.call.Batch(q)
			if err != nil {
				return nil, err
			}
			out["service.batch_dedup_share"] = float64(resp.Deduped) / float64(len(resp.Items))
			break
		}
	}

	// internal/optimize: whole solves, then one gradient and one linear
	// minimization at the solution.
	var iters, gaps []float64
	for k, done := solver.warm, 0; done < 20; k++ {
		req := solver.request(k)
		if req.class != classOptimize {
			continue
		}
		done++
		var q service.OptimizeRequest
		if err := decodeStrict(req.body, &q); err != nil {
			return nil, err
		}
		p, err := hardeningProblem(q)
		if err != nil {
			return nil, err
		}
		var a optimize.Allocation
		rec.do("optimize.solve", k, classOptimize, -1, func(int) { a, err = optimize.SolveHardening(p, optimize.Options{GapTolerance: 1e-9}) })
		if err != nil {
			return nil, err
		}
		iters = append(iters, float64(a.Iterations))
		gaps = append(gaps, a.Gap)
		obj, poly, grad := p.Objective(), p.Polytope(), make([]float64, len(a.Spend))
		for r := 0; r < 20; r++ {
			rec.do("optimize.grad", k, classOptimize, -1, func(int) { obj.Grad(a.Spend, grad) })
			rec.do("optimize.lmo", k, classOptimize, -1, func(int) { poly.LinearMinimize(grad) })
		}
	}
	out["optimize.solve_ms"] = rec.p50("optimize.solve") / 1e3
	out["optimize.iterations_per_solve"] = mean(iters)
	out["optimize.gap_final"] = median(gaps)
	out["optimize.grad_us"] = rec.p50("optimize.grad")
	out["optimize.lmo_us"] = rec.p50("optimize.lmo")

	// internal/montecarlo: the importance sampler at the solver_mix size.
	var relCI []float64
	for k, done := solver.warm, 0; done < 8; k++ {
		req := solver.request(k)
		if req.class != classTailImportance {
			continue
		}
		done++
		var q service.TailRequest
		if err := decodeStrict(req.body, &q); err != nil {
			return nil, err
		}
		fleet, m, _, err := service.AnalyzeRequest{Model: q.Model, Fleet: q.Fleet}.Query()
		if err != nil {
			return nil, err
		}
		member := make([]int, len(fleet))
		kMin := 0
		for i := range member {
			member[i] = -1
		}
		for m.Live(kMin, 0) {
			kMin++
		}
		pred := func(c, b int) bool { return !m.Live(c, b) }
		var est montecarlo.ImportanceEstimate
		rec.do("montecarlo.importance", k, classTailImportance, -1, func(int) {
			est, err = montecarlo.RunImportanceTri(fleet.Profiles(), member, nil,
				montecarlo.TiltForCount(fleet.Profiles(), kMin, false), pred, q.Samples, q.Seed)
		})
		if err != nil {
			return nil, err
		}
		relCI = append(relCI, dist.Z99*est.StdErr/est.P)
	}
	out["montecarlo.importance_ms"] = rec.p50("montecarlo.importance") / 1e3
	out["montecarlo.samples_per_s"] = 50000 / (rec.p50("montecarlo.importance") / 1e6)
	out["montecarlo.rel_ci99"] = median(relCI)

	// internal/core: the size ladder, one pooled evaluator, cold caches
	// irrelevant (independent fleets rebuild the joint DP every time).
	pool := core.NewEvaluatorPool()
	for _, step := range []struct {
		n, reps int
		name    string
		scale   float64
	}{{64, 40, "core.analyze_n64_us", 1}, {256, 5, "core.analyze_n256_ms", 1e3}, {1024, 3, "core.analyze_n1024_ms", 1e3}} {
		r := streamRNG(seed, 9, step.n)
		fl := make(core.Fleet, step.n)
		for i := range fl {
			fl[i].Profile = faultcurve.Profile{PCrash: r.between(0.005, 0.05), PByz: r.between(0.0001, 0.002)}
		}
		for i := 0; i < step.reps; i++ {
			var err error
			rec.do(step.name, i, classAnalyze, -1, func(int) { _, err = pool.Analyze(fl, core.NewRaft(step.n)) })
			if err != nil {
				return nil, err
			}
		}
		out[step.name] = rec.p50(step.name) / step.scale
	}

	// internal/qcache: a hit on a full cache, and an insert at capacity
	// (one eviction each).
	cache := qcache.New[core.Result](4096, 16)
	keys := make([]string, 4096+40*batchSize)
	for i := range keys {
		keys[i] = "probe-key-" + strconv.Itoa(i)
	}
	compute := func() (core.Result, error) { return core.Result{}, nil }
	for _, k := range keys[:2*4096] { // shards fill unevenly: overfill so every shard is at capacity
		if _, _, err := cache.Do(k, compute); err != nil {
			return nil, err
		}
	}
	out["qcache.hit_us"] = perOp(rec, "qcache.hit", 20, func(i int) { cache.Do(keys[2*4096-1-i%1024], compute) }) / 1e3
	out["qcache.miss_insert_us"] = perOp(rec, "qcache.miss_insert", 20, func(i int) { cache.Do(keys[2*4096+i], compute) }) / 1e3

	// internal/qcache peer tier over loopback TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := qcache.NewPeerServer(nullPeer{val: bytes.Repeat([]byte("x"), 360)}) // the size of a cached analyze response
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	remote := ln.Addr().String()
	client, err := qcache.NewPeerClient("127.0.0.1:1", []string{"127.0.0.1:1", remote}, qcache.PeerOptions{})
	if err != nil {
		return nil, err
	}
	var peerKeys []string
	for _, k := range keys {
		if !client.SelfOwns(k) && len(peerKeys) < 1000 {
			peerKeys = append(peerKeys, k)
		}
	}
	var peerErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range peerKeys {
		rec.do("qcache.peer_get", i, -1, -1, func(int) {
			if _, _, err := client.Get(k); err != nil {
				peerErr = err
			}
		})
	}
	runtime.ReadMemStats(&after)
	out["qcache.peer_allocs_per_get"] = float64(after.Mallocs-before.Mallocs) / float64(len(peerKeys))
	for i, k := range peerKeys {
		rec.do("qcache.peer_exec", i, -1, -1, func(int) {
			if _, _, err := client.Exec(k, []byte(`{"model":{"protocol":"raft","n":3},"p":0.01}`)); err != nil {
				peerErr = err
			}
		})
	}
	_ = client.Close()
	_ = srv.Close()
	if err := <-served; err != nil && peerErr == nil {
		peerErr = err
	}
	if peerErr != nil {
		return nil, fmt.Errorf("peer probe: %w", peerErr)
	}
	out["qcache.peer_get_us"] = rec.p50("qcache.peer_get")
	out["qcache.peer_exec_us"] = rec.p50("qcache.peer_exec")

	// internal/obs: what one request pays the flight recorder and one
	// histogram observation.
	store := obs.NewTraceStore(obs.TraceStoreOptions{})
	out["obs.trace_cycle_ns"] = perOp(rec, "obs.trace_cycle", 20, func(int) { store.Deposit(store.Acquire()) })
	hist := obs.NewHistogram(obs.LatencyBuckets)
	out["obs.histogram_observe_ns"] = perOp(rec, "obs.histogram_observe", 20, func(i int) { hist.Observe(float64(i%1000) * 1e-5) })
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
