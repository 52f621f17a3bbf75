package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// refFillPredGrids and refPopulate are the rest-table population the
// region sums replaced, kept as its oracle: the model's predicates
// evaluated once per (c, b) cell of the whole n-node fleet into bool
// grids, then every rest cell looked up at its shifted position and folded
// into three compensated sums per entry.
func refFillPredGrids(okSafe, okLive []bool, n int, m CountModel) ([]bool, []bool) {
	w := n + 1
	okSafe = grow(okSafe, w*w)
	okLive = grow(okLive, w*w)
	for c := 0; c <= n; c++ {
		row := c * w
		for b := 0; c+b <= n; b++ {
			okSafe[row+b] = m.Safe(c, b)
			okLive[row+b] = m.Live(c, b)
		}
	}
	return okSafe, okLive
}

func refPopulate(rt *restTables, r *dist.JointCrashByz, k, n int, okSafe, okLive []bool) {
	w := k + 1
	rt.k = k
	rt.safe = grow(rt.safe, w*w)
	rt.live = grow(rt.live, w*w)
	rt.both = grow(rt.both, w*w)
	nr := r.N()
	gw := n + 1
	for cd := 0; cd <= k; cd++ {
		for bd := 0; bd <= k; bd++ {
			i := cd*w + bd
			if cd+bd > k {
				rt.safe[i], rt.live[i], rt.both[i] = 0, 0, 0
				continue
			}
			var sS, sL, sB dist.KahanSum
			for c := 0; c <= nr; c++ {
				g := (c + cd) * gw
				for b := 0; c+b <= nr; b++ {
					mass := r.PMF(c, b)
					if mass == 0 {
						continue
					}
					gi := g + b + bd
					s, l := okSafe[gi], okLive[gi]
					if s {
						sS.Add(mass)
					}
					if l {
						sL.Add(mass)
					}
					if s && l {
						sB.Add(mass)
					}
				}
			}
			rt.safe[i], rt.live[i], rt.both[i] = sS.Sum(), sL.Sum(), sB.Sum()
		}
	}
}

// triStates is the fleet's nodes as the DP reads them.
func triStates(f Fleet) []dist.TriState {
	tri := make([]dist.TriState, len(f))
	for i, node := range f {
		tri[i] = node.Profile.TriState()
	}
	return tri
}

// populateRegions is the production population for model m.
func populateRegions(rt *restTables, rest *dist.JointCrashByz, k int, m CountModel) {
	safe, live := m.Regions()
	rt.populate(rest, k, safe, live, safe.Intersect(live))
}

// TestRestTablesMatchRef pins every rest-table entry to the bool-grid
// population it replaced, bit for bit: rest tables over random fleets
// (never-failing, never-correct and always-Byzantine nodes mixed in) and
// over convolutions of two, domains of 0 to 12 nodes, both protocols at
// the region-pass models and random sizings — empty regions and regions
// the domain alone can leave included. One restTables is reused
// throughout, as the evaluator's cache reuses them.
func TestRestTablesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var got, want restTables
	var okSafe, okLive []bool
	entries := 0
	for iter := 0; iter < 300; iter++ {
		nr := rng.Intn(30)
		k := rng.Intn(13)
		n := nr + k
		if n == 0 {
			continue
		}
		rest := dist.NewJointCrashByz(triStates(regionFleet(rng, nr, iter%3 == 0)))
		if iter%2 == 1 {
			split := rng.Intn(nr + 1)
			a := triStates(regionFleet(rng, split, false))
			b := triStates(regionFleet(rng, nr-split, iter%4 == 1))
			rest = dist.ConvolveJointCrashByz(dist.NewJointCrashByz(a), dist.NewJointCrashByz(b))
		}
		for _, m := range append(regionModels(n), randomSizing(rng, n), randomSizing(rng, n)) {
			populateRegions(&got, rest, k, m)
			okSafe, okLive = refFillPredGrids(okSafe, okLive, n, m)
			refPopulate(&want, rest, k, n, okSafe, okLive)
			if got.k != want.k {
				t.Fatalf("iter %d %s: k %d, oracle %d", iter, m.Name(), got.k, want.k)
			}
			for i := range want.safe {
				if got.safe[i] != want.safe[i] || got.live[i] != want.live[i] || got.both[i] != want.both[i] {
					t.Fatalf("iter %d %s k=%d entry (%d, %d): safe/live/both %v %v %v, oracle %v %v %v", iter, m.Name(), k,
						i/(k+1), i%(k+1), got.safe[i], got.live[i], got.both[i], want.safe[i], want.live[i], want.both[i])
				}
			}
			entries += len(want.safe)
		}
	}
	t.Logf("%d rest-table entries bit-identical to the bool-grid population", entries)
}

// BenchmarkRestTables prices the cold recombination's table cost for one
// zone at domain_churn's shape — a 48-node fleet in 4 zones of 12, so one
// 12-node zone over a 36-node rest — for majority Raft and textbook PBFT:
// region is the production population (one RegionSum per entry and
// region), ref the bool-grid population it replaced (the grids filled for
// the whole fleet, then every rest cell looked up per entry).
func BenchmarkRestTables(b *testing.B) {
	const n, k = 48, 12
	rng := rand.New(rand.NewSource(48))
	tri := make([]dist.TriState, n-k)
	for i := range tri {
		tri[i] = dist.TriState{PCrash: 0.002 + 0.028*rng.Float64(), PByz: 0.0001 + 0.0019*rng.Float64()}
	}
	rest := dist.NewJointCrashByz(tri)
	for _, tc := range []struct {
		protocol string
		m        CountModel
	}{{"raft", NewRaft(n)}, {"pbft", NewPBFTForN(n)}} {
		m := tc.m
		b.Run(fmt.Sprintf("%s/N=%d/k=%d/region", tc.protocol, n, k), func(b *testing.B) {
			var rt restTables
			for i := 0; i < b.N; i++ {
				populateRegions(&rt, rest, k, m)
			}
		})
		b.Run(fmt.Sprintf("%s/N=%d/k=%d/ref", tc.protocol, n, k), func(b *testing.B) {
			var rt restTables
			var okSafe, okLive []bool
			for i := 0; i < b.N; i++ {
				okSafe, okLive = refFillPredGrids(okSafe, okLive, n, m)
				refPopulate(&rt, rest, k, n, okSafe, okLive)
			}
		})
	}
}

// domainCacheStats snapshots the process-wide domain-cache counters;
// tests diff two snapshots around a query stream. Nothing else in the
// package's tests runs concurrently, so the deltas are this test's own.
type domainCacheCounts struct {
	BlockHits, BlockMisses, RestHits, RestMisses, ResultHits int64
}

func domainCacheStats() domainCacheCounts {
	return domainCacheCounts{
		BlockHits: domBlockHits.Load(), BlockMisses: domBlockMisses.Load(),
		RestHits: domRestHits.Load(), RestMisses: domRestMisses.Load(),
		ResultHits: domResultHits.Load(),
	}
}

// TestEvaluatorDomainsCachedMatchesReference cycles one warm evaluator
// through a stream of related domain queries — shock changes, member
// hardening, multiplier changes, model changes — and pins every answer
// against the throwaway reference engines at 1e-12, while requiring that
// the stream actually exercised the rest-table fast path.
func TestEvaluatorDomainsCachedMatchesReference(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	e := NewEvaluator()
	start := domainCacheStats()

	check := func(tag string, f Fleet, ds DomainSet) {
		t.Helper()
		got, err := e.AnalyzeDomains(f, m, ds)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		mix, err := AnalyzeDomainsMixture(f, m, ds)
		if err != nil {
			t.Fatalf("%s: reference mixture: %v", tag, err)
		}
		cond, err := AnalyzeDomainsConditioned(f, m, ds)
		if err != nil {
			t.Fatalf("%s: reference conditioned: %v", tag, err)
		}
		resultsClose(t, tag+" vs mixture", got, mix, 1e-12)
		resultsClose(t, tag+" vs conditioned", got, cond, 1e-12)
	}

	check("cold", fleet, domains)

	// Shock-only change in one domain: rest tables and all blocks hit.
	ds2 := append(DomainSet(nil), domains...)
	ds2[1].ShockProb = 0.2
	check("shock change", fleet, ds2)

	// Multiplier change in one domain: rest tables hit, elevated block of
	// that domain rebuilt.
	ds3 := append(DomainSet(nil), domains...)
	ds3[2].CrashMultiplier = 35
	check("multiplier change", fleet, ds3)

	// Member hardening inside one domain: its rest tables still hit.
	f2 := append(Fleet(nil), fleet...)
	f2[4].Profile = faultcurve.Profile{PCrash: 0.003, PByz: 0.0001}
	check("member change", fleet, domains)
	check("member change applied", f2, domains)

	// Independent-node change: every rest key misses, full recombination.
	f3 := append(Fleet(nil), fleet...)
	f3[0].Domain = ""
	check("layout change", f3, domains)

	// Sign of zero: -0 is the same shock and the same multiplier as +0, so
	// it must find what +0 left behind — the result memo on an exact
	// repeat, the rest tables when one other domain moved, the cached
	// blocks when two did.
	negZero := math.Copysign(0, -1)
	z := append(DomainSet(nil), domains...)
	z[0].ShockProb, z[0].ByzMultiplier, z[1].ShockProb = 0, 0, 0.25 // two domains moved: a full recombination
	check("+0", fleet, z)
	before := domainCacheStats()
	z[0].ShockProb, z[0].ByzMultiplier = negZero, negZero
	check("-0 repeat", fleet, z)
	z[1].ShockProb = 0.3
	check("-0 beside one moved domain", fleet, z)
	z[2].ShockProb = 0.4
	z[1].ShockProb = 0.35
	check("-0 beside two moved domains", fleet, z)
	after := domainCacheStats()
	if after.ResultHits != before.ResultHits+1 || after.RestHits != before.RestHits+1 ||
		after.RestMisses != before.RestMisses+1 || after.BlockMisses != before.BlockMisses {
		t.Errorf("-0 after +0: stats %+v -> %+v; want one result hit, one rest hit, one recombination, no block rebuilt", before, after)
	}

	end := domainCacheStats()
	if end.RestHits == start.RestHits {
		t.Fatalf("query stream never hit the rest-table fast path: %+v -> %+v", start, end)
	}
	if end.BlockHits == start.BlockHits {
		t.Fatalf("query stream never hit the block cache: %+v -> %+v", start, end)
	}
}

// TestEvaluatorDomainsColdMatchesPackageExactly pins that the evaluator's
// full (cache-cold) recombination performs the package mixture engine's
// exact floating-point operations: results are bit-identical, not merely
// close.
func TestEvaluatorDomainsColdMatchesPackageExactly(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	want, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEvaluator().AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cold evaluator result differs from package mixture:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalyzeDomainsBlockReuse is the counter pin for the tentpole claim:
// a 64-point shock sweep over one domain performs the cold query's block
// builds once and then ZERO further from-scratch joint builds — against
// 64 independent rebuild sets (7 per point at D=3) for the uncached
// engine, far beyond the required 10x.
func TestAnalyzeDomainsBlockReuse(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	e := NewEvaluator()

	start, restHits := dist.JointBuilds(), domRestHits.Load()
	ds := append(DomainSet(nil), domains...)
	for i := 0; i < 64; i++ {
		ds[0].ShockProb = 0.001 + 0.002*float64(i)
		if _, err := e.AnalyzeDomains(fleet, m, ds); err != nil {
			t.Fatal(err)
		}
	}
	builds := dist.JointBuilds() - start

	// Cold query: 1 independent-remainder block (empty here, still one
	// unit-table build) + 3 domains × (base, elevated) = 7. Every later
	// sweep point changes only a mixture weight: all blocks hit.
	const coldBuilds = 7
	if builds > coldBuilds {
		t.Fatalf("64-point shock sweep performed %d joint builds, want <= %d", builds, coldBuilds)
	}
	fresh := int64(64 * coldBuilds)
	if builds*10 > fresh {
		t.Fatalf("sweep builds %d not >= 10x fewer than fresh %d", builds, fresh)
	}

	if got := domRestHits.Load() - restHits; got < 63 {
		t.Fatalf("expected >= 63 rest-table fast-path hits, got %d", got)
	}
}

// TestAnalyzeDomainsZeroAllocs mirrors TestEvaluatorAnalyzeZeroAllocs for
// the correlated path (the satellite bugfix: package AnalyzeDomains runs
// on pooled evaluators): once warm, a repeated domain query allocates
// nothing — partition scratch, cache keys, block lookups, the mixture and
// the rest-table dot product all reuse evaluator-owned memory.
func TestAnalyzeDomainsZeroAllocs(t *testing.T) {
	fleet, domains := domainFleet9()
	// Box the model once: passing a concrete Raft would allocate the
	// interface value per call and mask the engine's own behaviour.
	m := CountModel(NewRaft(9))
	e := NewEvaluator()
	if _, err := e.AnalyzeDomains(fleet, m, domains); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.AnalyzeDomains(fleet, m, domains); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm evaluator AnalyzeDomains allocates %v/op, want 0", allocs)
	}

	// The package-level entry point rides the shared pool: steady state is
	// allocation-free there too. (sync.Pool drops items on purpose under
	// the race detector, so the pooled pin only holds without it.)
	if raceEnabled {
		return
	}
	if _, err := AnalyzeDomains(fleet, m, domains); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := AnalyzeDomains(fleet, m, domains); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("package AnalyzeDomains allocates %v/op in steady state, want 0", allocs)
	}
}

// TestDomainsEstimateMatchesDispatch pins the satellite bugfix: the work
// estimate the serving layer admits queries under is the cost of the
// engine AnalyzeDomains actually dispatches to, and it upper-bounds the
// measured from-scratch build count on both engines.
func TestDomainsEstimateMatchesDispatch(t *testing.T) {
	// Layout 1: many small domains — the mixture engine.
	fleet, domains := domainFleet9()
	var l domainLayout
	if err := l.resolve(fleet, domains); err != nil {
		t.Fatal(err)
	}
	engine, work := chooseDomainEngine(len(fleet), l.blocks)
	if engine != engineMixture {
		t.Fatalf("domainFleet9 dispatched to engine %d, want mixture", engine)
	}
	if est := DomainsWorkEstimate(fleet, domains); est != work {
		t.Fatalf("estimate %g != dispatched engine work %g", est, work)
	}
	start := dist.JointBuilds()
	if _, err := NewEvaluator().AnalyzeDomains(fleet, NewRaft(9), domains); err != nil {
		t.Fatal(err)
	}
	if builds := float64(dist.JointBuilds() - start); builds > work {
		t.Fatalf("mixture: measured %v builds exceed estimate %v", builds, work)
	}

	// Layout 2: two huge domains — the 2^D conditioned engine (the k^4
	// convolution term dwarfs 4·N^3 conditioning even with the mixture
	// engine's dispatch bias).
	const n = 300
	bigFleet := make(Fleet, n)
	for i := range bigFleet {
		name := "left"
		if i >= n/2 {
			name = "right"
		}
		bigFleet[i] = Node{
			Name:    name,
			Profile: faultcurve.Profile{PCrash: 0.01, PByz: 0.001},
			Domain:  name,
		}
	}
	bigDomains := DomainSet{
		{Name: "left", ShockProb: 0.01, CrashMultiplier: 5, ByzMultiplier: 2},
		{Name: "right", ShockProb: 0.02, CrashMultiplier: 3, ByzMultiplier: 1},
	}
	if err := l.resolve(bigFleet, bigDomains); err != nil {
		t.Fatal(err)
	}
	engine, work = chooseDomainEngine(n, l.blocks)
	if engine != engineConditioned {
		t.Fatalf("two-halves fleet dispatched to engine %d, want conditioned", engine)
	}
	if est := DomainsWorkEstimate(bigFleet, bigDomains); est != work {
		t.Fatalf("estimate %g != dispatched engine work %g", est, work)
	}
	start = dist.JointBuilds()
	got, err := NewEvaluator().AnalyzeDomains(bigFleet, NewRaft(n), bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	builds := dist.JointBuilds() - start
	if builds != 4 {
		t.Fatalf("conditioned D=2 performed %d builds, want 2^2 = 4", builds)
	}
	if float64(builds) > work {
		t.Fatalf("conditioned: measured %v builds exceed estimate %v", builds, work)
	}
	// And the package-level conditioned referee is that same engine.
	want, err := AnalyzeDomainsConditioned(bigFleet, NewRaft(n), bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("evaluator's conditioned engine %+v != AnalyzeDomainsConditioned %+v", got, want)
	}
}

// TestEvaluatorDomainsLargeFleet exercises the correlated path at the
// sizes the ROADMAP called a wall: the dispatcher prices an N=256, D=8
// layout far under the serving work bound, and an N=128 query stream runs
// the parallel row-split (width >= dist.ParallelRowThreshold) with the
// incremental follow-up answered from rest tables with zero new builds.
func TestEvaluatorDomainsLargeFleet(t *testing.T) {
	mkFleet := func(n, d int) (Fleet, DomainSet) {
		fleet := make(Fleet, n)
		domains := make(DomainSet, d)
		for j := range domains {
			domains[j] = faultcurve.Domain{
				Name:            string(rune('a' + j)),
				ShockProb:       0.01 + 0.001*float64(j),
				CrashMultiplier: 4,
				ByzMultiplier:   2,
			}
		}
		for i := range fleet {
			fleet[i] = Node{
				Name:    string(rune('a'+i%d)) + "-node",
				Profile: faultcurve.Profile{PCrash: 0.01 + 0.0001*float64(i%5), PByz: 0.0002},
				Domain:  domains[i%d].Name,
			}
		}
		return fleet, domains
	}

	// N=256, D=8: admissible under the serving layer's 2e10 work bound.
	fleet256, domains256 := mkFleet(256, 8)
	if est := DomainsWorkEstimate(fleet256, domains256); est >= 2e10 {
		t.Fatalf("N=256 D=8 estimate %g not under the 2e10 serving bound", est)
	}

	// N=128, D=8: run it. Cold query, then a shock perturbation.
	fleet, domains := mkFleet(128, 8)
	m := NewRaft(128)
	e := NewEvaluator()
	got, err := e.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeDomainsMixture(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "N=128 cold vs reference", got, want, 1e-12)

	ds2 := append(DomainSet(nil), domains...)
	ds2[3].ShockProb = 0.2
	start := dist.JointBuilds()
	got2, err := e.AnalyzeDomains(fleet, m, ds2)
	if err != nil {
		t.Fatal(err)
	}
	if builds := dist.JointBuilds() - start; builds != 0 {
		t.Fatalf("shock-perturbed N=128 query performed %d builds, want 0", builds)
	}
	want2, err := AnalyzeDomainsMixture(fleet, m, ds2)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "N=128 incremental vs reference", got2, want2, 1e-12)
}

// TestEvaluatorDomainsValidation pins that the workspace engine rejects
// exactly what the package validation rejects.
func TestEvaluatorDomainsValidation(t *testing.T) {
	fleet, domains := domainFleet9()
	e := NewEvaluator()

	if _, err := e.AnalyzeDomains(fleet, NewRaft(5), domains); err == nil {
		t.Fatal("size-mismatched model accepted")
	}

	bad := append(DomainSet(nil), domains...)
	bad[1].Name = bad[0].Name
	if _, err := e.AnalyzeDomains(fleet, NewRaft(9), bad); err == nil {
		t.Fatal("duplicate domain name accepted")
	}

	orphan := append(Fleet(nil), fleet...)
	orphan[2].Domain = "no-such-zone"
	if _, err := e.AnalyzeDomains(orphan, NewRaft(9), domains); err == nil {
		t.Fatal("undefined domain reference accepted")
	}

	shockless := append(DomainSet(nil), domains...)
	shockless[0].ShockProb = 1.5
	if _, err := e.AnalyzeDomains(fleet, NewRaft(9), shockless); err == nil {
		t.Fatal("out-of-range shock accepted")
	}
}
