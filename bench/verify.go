package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service"
)

// absTol is the repo's convention for exact-engine agreement.
const absTol = 1e-12

// decodeStrict decodes exactly like the daemon does: unknown fields are an
// error, so a body the generator misspells fails here as it would there.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// reference recomputes a query from scratch: core.Analyze for independent
// fleets, the straight-line 2^D conditioning oracle for correlated ones.
// Neither shares code paths with the evaluator's caches.
func reference(fleet core.Fleet, m core.CountModel, domains core.DomainSet) (core.Result, error) {
	if len(domains) == 0 {
		return core.Analyze(fleet, m)
	}
	return core.AnalyzeDomainsConditioned(fleet, m, domains)
}

func near(what string, got, want, tol float64) error {
	if math.Abs(got-want) > tol || math.IsNaN(got) {
		return fmt.Errorf("%s = %v, reference %v (|diff| %.3g > %.3g)", what, got, want, math.Abs(got-want), tol)
	}
	return nil
}

func checkResult(got service.ResultView, want core.Result) error {
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"safe", got.Safe, want.Safe},
		{"live", got.Live, want.Live},
		{"safe_and_live", got.SafeAndLive, want.SafeAndLive},
	} {
		if err := near(c.what, c.got, c.want, absTol); err != nil {
			return err
		}
	}
	return nil
}

func verifyAnalyzePair(req service.AnalyzeRequest, resp service.AnalyzeResponse) error {
	fleet, m, domains, err := req.Query()
	if err != nil {
		return err
	}
	want, err := reference(fleet, m, domains)
	if err != nil {
		return err
	}
	return checkResult(service.ResultView{Safe: resp.Safe, Live: resp.Live, SafeAndLive: resp.SafeAndLive}, want)
}

// verify recomputes one held-back response through the reference path.
func verify(req request, respBody []byte) error {
	switch req.class {
	case classAnalyze:
		var q service.AnalyzeRequest
		var a service.AnalyzeResponse
		if err := decodeStrict(req.body, &q); err != nil {
			return err
		}
		if err := json.Unmarshal(respBody, &a); err != nil {
			return err
		}
		return verifyAnalyzePair(q, a)
	case classOptimize:
		return verifyOptimize(req.body, respBody)
	case classTailExact, classTailImportance:
		return verifyTail(req.body, respBody)
	case classSweep:
		return verifySweep(req.body, respBody)
	case classBatch:
		return verifyBatch(req.body, respBody)
	}
	return fmt.Errorf("no reference check for class %d", req.class)
}

// verifyOptimize accepts an allocation that is feasible, certified
// (converged with the duality gap under the tolerance), and whose reported
// optimized result is what the exact engine says that allocation buys.
func verifyOptimize(reqBody, respBody []byte) error {
	var q service.OptimizeRequest
	var a service.OptimizeResponse
	if err := decodeStrict(reqBody, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, &a); err != nil {
		return err
	}
	tol := q.Tolerance
	if tol == 0 {
		tol = 1e-9
	}
	if !a.Converged || !(a.Gap <= tol) {
		return fmt.Errorf("optimize: converged=%v gap=%v, want a certificate under %v", a.Converged, a.Gap, tol)
	}
	p, err := hardeningProblem(q)
	if err != nil {
		return err
	}
	if len(a.Allocation) != len(p.Fleet) {
		return fmt.Errorf("optimize: %d allocation lines for %d nodes", len(a.Allocation), len(p.Fleet))
	}
	spend := make([]float64, len(p.Fleet))
	var total float64
	for i := range spend {
		spend[i] = a.Allocation[i].Spend
		total += spend[i]
		if spend[i] < -absTol {
			return fmt.Errorf("optimize: negative spend %v on node %d", spend[i], i)
		}
	}
	if total > q.Budget*(1+1e-9) {
		return fmt.Errorf("optimize: spent %v of budget %v", total, q.Budget)
	}
	if err := checkResult(a.Base, p.Eval(make([]float64, len(spend)))); err != nil {
		return fmt.Errorf("optimize base: %w", err)
	}
	if err := checkResult(a.Optimized, p.Eval(spend)); err != nil {
		return fmt.Errorf("optimize optimized: %w", err)
	}
	return nil
}

// importanceSigmas widens the sampler's own 99% interval (z = 2.576) to
// z = 5.152 for the acceptance test: a correct estimator lands outside
// its 99% interval once in a hundred requests, which would fail a healthy
// run; outside twice that it is wrong.
const importanceSigmas = 2

func verifyTail(reqBody, respBody []byte) error {
	var q service.TailRequest
	var a service.TailResponse
	if err := decodeStrict(reqBody, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, &a); err != nil {
		return err
	}
	fleet, m, domains, err := service.AnalyzeRequest{Model: q.Model, Fleet: q.Fleet, P: q.P, Domains: q.Domains}.Query()
	if err != nil {
		return err
	}
	if q.Event != service.EventNotLive || len(domains) != 0 {
		return fmt.Errorf("tail: the reference check covers not_live on independent fleets only")
	}
	if a.Method != q.Method {
		return fmt.Errorf("tail: asked for method %q, answered by %q", q.Method, a.Method)
	}
	if q.Method == service.MethodExact {
		want, err := core.Analyze(fleet, m)
		if err != nil {
			return err
		}
		exact := 1 - want.Live
		return near("tail p", a.P, exact, 1e-9*exact+1e-15)
	}
	// The importance estimate is judged against the tail mass summed
	// directly (no 1-x cancellation), inside its own confidence interval.
	tri := make([]dist.TriState, len(fleet))
	for i, n := range fleet {
		tri[i] = n.Profile.TriState()
	}
	exact := dist.NewJointCrashByz(tri).SumWhere(func(c, b int) bool { return !m.Live(c, b) })
	if a.RelCI99 <= 0 || a.RelCI99 > 0.5 {
		return fmt.Errorf("tail importance: rel_ci99 = %v, want a resolved estimate", a.RelCI99)
	}
	return near("tail importance p", a.P, exact, importanceSigmas*a.RelCI99*a.P)
}

func verifySweep(reqBody, respBody []byte) error {
	var q service.SweepRequest
	if err := decodeStrict(reqBody, &q); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(respBody))
	for _, n := range q.Ns {
		for _, p := range q.Ps {
			var line service.SweepLine
			if err := dec.Decode(&line); err != nil {
				return fmt.Errorf("sweep: cell n=%d p=%v: %w", n, p, err)
			}
			if line.Error != "" || line.N != n || line.P != p {
				return fmt.Errorf("sweep: want cell n=%d p=%v, got %+v", n, p, line)
			}
			want, err := core.Analyze(core.UniformCrashFleet(n, p), core.NewRaft(n))
			if err != nil {
				return err
			}
			if err := checkResult(service.ResultView{Safe: line.Safe, Live: line.Live, SafeAndLive: line.SafeAndLive}, want); err != nil {
				return fmt.Errorf("sweep cell n=%d p=%v: %w", n, p, err)
			}
		}
	}
	if dec.More() {
		return fmt.Errorf("sweep: more lines than cells")
	}
	return nil
}

func verifyBatch(reqBody, respBody []byte) error {
	var q service.BatchRequest
	var a service.BatchResponse
	if err := decodeStrict(reqBody, &q); err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, &a); err != nil {
		return err
	}
	if len(a.Items) != len(q.Items) || a.Deduped != len(q.Items)/2 || a.Distinct != len(q.Items)/2 {
		return fmt.Errorf("batch: %d items, %d distinct, %d deduped for %d requests with every fleet sent twice",
			len(a.Items), a.Distinct, a.Deduped, len(q.Items))
	}
	for i, it := range q.Items {
		if a.Items[i].Error != "" || a.Items[i].Analyze == nil || it.Analyze == nil {
			return fmt.Errorf("batch item %d: %+v", i, a.Items[i])
		}
		if err := verifyAnalyzePair(*it.Analyze, *a.Items[i].Analyze); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}
