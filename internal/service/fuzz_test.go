package service

import (
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The fuzz targets below exercise the request decoders and validators of
// the three POST endpoints — the code between raw client bytes and the
// engine. They deliberately stop short of running the engine or solver:
// a valid request may legally cost up to a minute of CPU, which would
// starve the fuzzer. The property under test is that arbitrary bytes
// either fail cleanly (a client error) or resolve into inputs satisfying
// the invariants the engine and cache rely on — never a panic, never a
// fleet/model size mismatch, never an unfingerprintable query.

// decodeStrict is the handlers' decoder without the HTTP plumbing.
func decodeStrict(data []byte, v any) error { return decodeRequest(data, v) }

// The seed corpora are package-level because two targets use each: the
// endpoint's own, and FuzzDecodeMatchesReference (decode_test.go), which
// runs every body through both decoders.
var analyzeFuzzSeeds = []string{
	`{"model":{"protocol":"raft","n":3},"p":0.01}`,
	`{"model":{"protocol":"pbft","n":7,"q_eq":5,"q_per":5,"q_vc":5,"q_vct":3},"p":0.01}`,
	`{"model":{"protocol":"raft","n":3},"fleet":[{"p_crash":0.01},{"p_crash":0.02},{"p_crash":0.04,"p_byz":0.001}]}`,
	domainsBody,
	`{"model":{"protocol":"raft","n":9},"p":0.02,"domains":[{"name":"z1","shock":0.001,"crash_mult":30},{"name":"z2","shock":0.001,"crash_mult":30},{"name":"z3","shock":0.001,"crash_mult":30}]}`,
	`{"model":{"protocol":"raft","n":0},"p":0.01}`,
	`{"model":{"protocol":"raft","n":3},"p":1.5}`,
	`{"model":{"protocol":"paxos","n":3},"p":0.01}`,
	`{"model":{"protocol":"raft","n":5},"fleet":[{"p_crash":0.1}]}`,
	`{"model":{"protocol":"raft","n":3},"p":0.1,"fleet":[{"p_crash":0.1},{"p_crash":0.1},{"p_crash":0.1}]}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"domains":[{"name":"z","shock":1.5}]}`,
	`{"model":{"protocol":"raft","n":3},"fleet":[{"p_crash":0.01,"domain":"ghost"},{"p_crash":0.01},{"p_crash":0.01}]}`,
	`{"model":{"protocol":"raft","n":9999999},"p":0.1}`,
	`not json`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"bogus":1}`,
}

func FuzzAnalyzeRequest(f *testing.F) {
	for _, s := range analyzeFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req AnalyzeRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		fleet, m, domains, err := req.Query()
		if err != nil {
			return // rejected: the clean client-error path
		}
		// Accepted queries must satisfy what the engine asserts and the
		// cache assumes.
		if len(fleet) != m.N() {
			t.Fatalf("accepted query with fleet size %d != model N %d", len(fleet), m.N())
		}
		if err := fleet.Validate(); err != nil {
			t.Fatalf("accepted query with invalid fleet: %v", err)
		}
		if err := domains.Validate(fleet); err != nil {
			t.Fatalf("accepted query with invalid domain layout: %v", err)
		}
		if _, err := core.FleetModelDomainsFingerprint(fleet, m, domains); err != nil {
			t.Fatalf("accepted query is unfingerprintable: %v", err)
		}
		if work := core.DomainsWorkEstimate(fleet, domains); work > MaxAnalyzeWork {
			t.Fatalf("accepted query above the work bound: %g > %g", work, float64(MaxAnalyzeWork))
		}
	})
}

var sweepFuzzSeeds = []string{
	`{"protocol":"raft","ns":[3,5,7,9],"ps":[0.01,0.02,0.04,0.08]}`,
	`{"protocol":"pbft","ns":[4,7],"ps":[0.01]}`,
	`{"protocol":"raft","ns":[3,9],"ps":[0.01,0.04],"domains":[{"name":"z1","shock":0.001,"crash_mult":40},{"name":"z2","shock":0.001,"crash_mult":40},{"name":"z3","shock":0.001,"crash_mult":40}]}`,
	`{"protocol":"quorum","ns":[3],"ps":[0.01]}`,
	`{"protocol":"raft","ns":[],"ps":[0.01]}`,
	`{"protocol":"raft","ns":[3],"ps":[2]}`,
	`{"protocol":"raft","ns":[1024],"ps":[0.01]}`,
	`{"protocol":"raft","ns":[3],"ps":[0.01],"domains":[{"name":"z","shock":2}]}`,
	`{"ns":[3],"ps":[0.01]}`,
}

func FuzzSweepRequest(f *testing.F) {
	for _, s := range sweepFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		domains, err := req.plan()
		if err != nil {
			return
		}
		// A planned grid must be within the scheduling bounds and carry
		// its resolved domain layout.
		if cells := len(req.Ns) * len(req.Ps); cells == 0 || cells > MaxSweepCells {
			t.Fatalf("planned grid has %d cells", cells)
		}
		if len(domains) != len(req.Domains) {
			t.Fatalf("planned sweep resolved %d of %d domains", len(domains), len(req.Domains))
		}
	})
}

var tailFuzzSeeds = []string{
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live"}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"importance","samples":50000,"seed":3}`,
	`{"model":{"protocol":"pbft","n":4},"fleet":[{"p_byz":0.001},{"p_byz":0.001},{"p_byz":0.001},{"p_byz":0.001}],"event":"unsafe"}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0001,"event":"not_ok","domains":[{"name":"z1","shock":0.0001,"crash_mult":100},{"name":"z2","shock":0.0001,"crash_mult":100}],"fleet":[{"p_crash":0.0001,"domain":"z1"},{"p_crash":0.0001,"domain":"z1"},{"p_crash":0.0001,"domain":"z2"},{"p_crash":0.0001,"domain":"z2"},{"p_crash":0.0001}]}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"unsafe"}`,
	`{"model":{"protocol":"raft","n":9},"p":0.01,"event":"not_live","method":"auto","max_work":100}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"exact","max_work":10}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"eclipse"}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"quantum"}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","max_work":-1}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","samples":-5}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","samples":99999999}`,
	`{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"not_live","method":"importance","samples":200000,"max_work":100}`,
	`{"model":{"protocol":"raft","n":5},"p":1.5,"event":"not_live"}`,
	`{"event":"not_live"}`,
	`not json`,
	// Hostile fleets and odd sizings, for the kMin referee: no fault mass
	// at all, crash-only and Byzantine-only nodes beside a zero-mass one, a
	// certainly-crashing node, an unsafe Raft sizing (empty safe region), a
	// PBFT sizing whose Byzantine bound exceeds its faulty bound, and one
	// with several Byzantine columns.
	`{"model":{"protocol":"raft","n":3},"p":0,"event":"not_live","method":"importance"}`,
	`{"model":{"protocol":"pbft","n":4},"fleet":[{"p_crash":0.01},{"p_crash":0.02},{"p_byz":0.001},{}],"event":"not_ok"}`,
	`{"model":{"protocol":"pbft","n":4},"fleet":[{"p_byz":0.01},{"p_byz":0.02},{},{}],"event":"unsafe","method":"importance"}`,
	`{"model":{"protocol":"raft","n":3},"fleet":[{"p_crash":1},{},{}],"event":"not_live"}`,
	`{"model":{"protocol":"raft","n":6,"q_per":2,"q_vc":3},"p":0.01,"event":"unsafe"}`,
	`{"model":{"protocol":"pbft","n":7,"q_eq":6,"q_per":6,"q_vc":6,"q_vct":3},"p":0.01,"event":"not_ok","method":"importance"}`,
	`{"model":{"protocol":"pbft","n":9,"q_eq":5,"q_per":5,"q_vc":5,"q_vct":2},"fleet":[{"p_byz":0.01},{"p_byz":0.01},{"p_byz":0.01},{"p_crash":0.01},{},{},{},{},{}],"event":"not_live"}`,
}

func FuzzTailRequest(f *testing.F) {
	for _, s := range tailFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req TailRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		plan, err := planTail(req)
		if err != nil {
			if !isClientError(err) {
				t.Fatalf("planTail returned a non-client error: %v", err)
			}
			return
		}
		// An accepted plan must be fully resolved and satisfy everything
		// Tail's execution and cache paths rely on.
		if plan.resolved != MethodExact && plan.resolved != MethodImportance {
			t.Fatalf("accepted plan with unresolved method %q", plan.resolved)
		}
		if len(plan.query.fleet) != plan.query.model.N() {
			t.Fatalf("accepted plan with fleet size %d != model N %d", len(plan.query.fleet), plan.query.model.N())
		}
		if err := plan.query.fleet.Validate(); err != nil {
			t.Fatalf("accepted plan with invalid fleet: %v", err)
		}
		if err := plan.query.domains.Validate(plan.query.fleet); err != nil {
			t.Fatalf("accepted plan with invalid domain layout: %v", err)
		}
		if plan.query.key == "" || plan.key == "" {
			t.Fatalf("accepted plan without cache identity: fp=%q key=%q", plan.query.key, plan.key)
		}
		if plan.seed == 0 {
			t.Fatalf("accepted plan with unseeded sampler")
		}
		// The closed-form minimal count against the scan it replaced,
		// through the event's predicate as the model states it.
		if want := refMinEventCount(plan.query.fleet, refTailPred(plan.query.model, plan.event)); plan.kMin != want {
			t.Fatalf("plan kMin %d, scan %d", plan.kMin, want)
		}
		switch plan.resolved {
		case MethodImportance:
			if plan.samples < 1 || plan.samples > MaxTailSamples {
				t.Fatalf("importance plan with samples %d outside [1, %d]", plan.samples, MaxTailSamples)
			}
			if work := float64(plan.samples) * float64(len(plan.query.fleet)); work > plan.maxWork {
				t.Fatalf("importance plan over its own bound: %g > %g", work, plan.maxWork)
			}
		case MethodExact:
			if plan.kMin != -1 && plan.estimate > plan.maxWork {
				t.Fatalf("exact plan over its own bound: %g > %g", plan.estimate, plan.maxWork)
			}
		}
	})
}

var optimizeFuzzSeeds = []string{
	optimizeBody,
	`{"model":{"protocol":"raft","n":9},"p":0.004,"budget":1,"target":"domains","curve":{"floor_frac":0.05,"scale":0.3},"domains":[{"name":"a","shock":0.003,"crash_mult":300},{"name":"b","shock":0.001,"crash_mult":300},{"name":"c","shock":0.0003,"crash_mult":300}]}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":0,"curve":{"floor_frac":0.1,"scale":0.3}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1e12,"curve":{"floor_frac":0.1,"scale":0.3}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1,"iterations":-1,"curve":{"floor_frac":0.1,"scale":0.3}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1,"curve":{"floor_frac":1.5,"scale":0.3}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1,"curve":{"floor_frac":0.1,"scale":0}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1,"target":"widgets","curve":{"floor_frac":0.1,"scale":0.3}}`,
	`{"model":{"protocol":"raft","n":3},"p":0.01,"budget":1,"target":"domains","curve":{"floor_frac":0.1,"scale":0.3}}`,
}

func FuzzOptimizeRequest(f *testing.F) {
	for _, s := range optimizeFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req OptimizeRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		// planOptimize is everything /v1/optimize and a batch optimize item
		// do before solving: arbitrary bytes either fail as a client error
		// or plan into a keyed problem with one label per budget dimension.
		plan, err := planOptimize(req)
		if err != nil {
			if !isClientError(err) {
				t.Fatalf("planOptimize returned a non-client error: %v", err)
			}
			return
		}
		if plan.key == "" || len(plan.names) == 0 || plan.solve == nil {
			t.Fatalf("accepted plan is not runnable: key=%q names=%d", plan.key, len(plan.names))
		}
	})
}

// FuzzTraceFilter fuzzes the /v1/traces query-string decoder: arbitrary
// query strings either fail as a client error or produce a filter whose
// fields satisfy the documented bounds — never a panic.
func FuzzTraceFilter(f *testing.F) {
	seeds := []string{
		"",
		"endpoint=analyze",
		"id=a1b2c3d4-00000001",
		"status=404&min_ms=2.5",
		"min_status=400&keep=error&limit=10",
		"keep=slow&exemplars=true",
		"limit=1000&min_ms=1e6",
		"endpoint=analyze&endpoint=sweep",
		"bogus=1",
		"min_ms=NaN&status=99&limit=-1",
		"exemplars=TRUE&keep=sampled",
		"%zz=%zz",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		filter, _, err := parseTraceFilter(q)
		if err != nil {
			return
		}
		if filter.Status != 0 && (filter.Status < 100 || filter.Status > 599) {
			t.Fatalf("status out of range: %d", filter.Status)
		}
		if filter.MinStatus != 0 && (filter.MinStatus < 100 || filter.MinStatus > 599) {
			t.Fatalf("min_status out of range: %d", filter.MinStatus)
		}
		if filter.MinDuration < 0 {
			t.Fatalf("negative min duration: %v", filter.MinDuration)
		}
		if filter.Limit < 0 || filter.Limit > maxTraceLimit {
			t.Fatalf("limit out of range: %d", filter.Limit)
		}
		switch filter.Keep {
		case "", obs.KeepSlow, obs.KeepError, obs.KeepSampled, obs.KeepRecent:
		default:
			t.Fatalf("invalid keep class: %q", filter.Keep)
		}
	})
}

var batchFuzzSeeds = []string{
	batchBody,
	`{"items":[{"analyze":{"model":{"protocol":"raft","n":3},"p":0.01}}]}`,
	`{"items":[{"analyze":{"model":{"protocol":"raft","n":3},"p":0.01},"sweep":{"protocol":"raft","ns":[3],"ps":[0.01]}}]}`,
	`{"items":[{}]}`,
	`{"items":[]}`,
	`{}`,
	`{"items":[{"tail":{"model":{"protocol":"raft","n":5},"p":0.0002,"event":"melted"}}]}`,
	`{"items":[{"optimize":{"model":{"protocol":"raft","n":3},"p":0.02,"budget":-1,"curve":{"floor_frac":0.1,"scale":0.25}}}]}`,
	`{"items":[{"analyze":{"model":{"protocol":"raft","n":-3},"p":2}},{"analyze":{"model":{"protocol":"raft","n":3},"p":0.01}}]}`,
	`not json`,
}

// FuzzBatchRequest exercises batch planning: arbitrary bytes either fail
// the whole request as a client error or plan into an index-aligned job
// list where every item is answered exactly once — by a job or by its
// own validation error — without ever touching the engine (planBatch
// never runs jobs).
func FuzzBatchRequest(f *testing.F) {
	for _, s := range batchFuzzSeeds {
		f.Add([]byte(s))
	}
	srv := New(Options{
		CacheCapacity: 16, CacheShards: 1, Workers: 1,
		AnalyzeFunc: func(core.Fleet, core.CountModel, core.DomainSet) (core.Result, error) {
			panic("planBatch must not run the engine")
		},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		if err := decodeStrict(data, &req); err != nil {
			return
		}
		jobs, results, deduped, err := srv.planBatch(req)
		if err != nil {
			if !isClientError(err) {
				t.Fatalf("whole-request rejection is not a client error: %v", err)
			}
			return
		}
		if len(results) != len(req.Items) {
			t.Fatalf("results misaligned: %d results for %d items", len(results), len(req.Items))
		}
		covered := make([]int, len(req.Items))
		total := 0
		for _, j := range jobs {
			if len(j.indexes) > 1 && j.key == "" {
				t.Fatal("unkeyed job deduplicated")
			}
			for _, i := range j.indexes {
				if i < 0 || i >= len(results) {
					t.Fatalf("job index %d out of range", i)
				}
				covered[i]++
				total++
			}
		}
		for i, n := range covered {
			hasErr := results[i].Error != ""
			if hasErr && n != 0 {
				t.Fatalf("item %d both errored and scheduled", i)
			}
			if !hasErr && n != 1 {
				t.Fatalf("item %d covered by %d jobs, want exactly 1", i, n)
			}
		}
		if deduped != total-len(jobs) {
			t.Fatalf("deduped = %d, want %d (covered %d over %d jobs)", deduped, total-len(jobs), total, len(jobs))
		}
	})
}
