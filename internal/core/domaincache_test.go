package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// refFillPredGrids and refPopulate are the rest-table population of the
// joint-table engine, kept as the oracle of the failure tables: the
// model's predicates evaluated once per (c, b) cell of the whole n-node
// fleet into bool grids, then every cell of the rest's joint table looked
// up at its shifted position and, where a predicate fails there, folded
// into that predicate's compensated sum per entry (cd, bd), the faults the
// domain contributes.
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

// refRest is one domain's rest tables: entry [cd*(k+1)+bd] is the rest
// mass under which each predicate fails when the domain contributes
// exactly (cd, bd) faults.
type refRest struct {
	k                int
	safe, live, both []float64
}

func refPopulate(rt *refRest, r *dist.JointCrashByz, k, n int, okSafe, okLive []bool) {
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
					if !s {
						sS.Add(mass)
					}
					if !l {
						sL.Add(mass)
					}
					if !s || !l {
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

// pointMass is the group of cd always-crashed and bd always-Byzantine
// nodes: its tables hold all their mass on the one cell (cd, bd), so a dot
// product against failure tables reads that cell out.
func pointMass(cd, bd int) []dist.TriState {
	tri := make([]dist.TriState, 0, cd+bd)
	for i := 0; i < cd+bd; i++ {
		if i < cd {
			tri = append(tri, dist.TriState{PCrash: 1})
		} else {
			tri = append(tri, dist.TriState{PByz: 1})
		}
	}
	return tri
}

// TestRestTablesMatchRef pins every failure-table cell — P[x + Y ∉ r] for
// the rest of the fleet Y, read out at each cell x = (cd, bd) a domain of k
// nodes can contribute — to the bool-grid population over the rest's joint
// table, summed over the out-of-region cells, at 1e-13 relative: failure
// tables folded backward over random fleets (never-failing, never-correct
// and always-Byzantine nodes mixed in) and over a shocked group's mixture
// on top of another, domains of 0 to 12 nodes, both protocols at the
// region-pass models and random sizings — empty regions and regions the
// domain alone can leave included. One set of tables is reused
// throughout, as the evaluator's scratch is.
func TestRestTablesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var fail, base, elev, point dist.RegionPass
	var want, wantHot refRest
	var okSafe, okLive []bool
	entries, worst := 0, 0.0
	for iter := 0; iter < 300; iter++ {
		nr := rng.Intn(30)
		k := rng.Intn(13)
		n := nr + k
		if n == 0 {
			continue
		}
		restFleet := triStates(regionFleet(rng, nr, iter%3 == 0))
		joint := dist.NewJointCrashByz(restFleet)
		// Odd iterations shock the rest's tail: the failure tables of its
		// head, folded on through the tail's base and elevated nodes and
		// mixed, against the same mixture of the two populations.
		split, s := -1, 0.0
		var hotFleet []dist.TriState
		var hotJoint *dist.JointCrashByz
		if iter%2 == 1 {
			split, s = rng.Intn(nr+1), rng.Float64()
			hotFleet = append(append([]dist.TriState(nil), restFleet[:split]...), triStates(regionFleet(rng, nr-split, iter%4 == 1))...)
			hotJoint = dist.NewJointCrashByz(hotFleet)
		}
		for _, m := range append(regionModels(n), randomSizing(rng, n), randomSizing(rng, n)) {
			regions := modelRegions(m)
			fail.ResetFailure(regions, n)
			if split < 0 {
				fail.FoldBack(restFleet)
			} else {
				fail.FoldBack(restFleet[:split])
				base.Mix(&fail, &fail, 1, 0)
				elev.Mix(&fail, &fail, 1, 0)
				base.FoldBack(restFleet[split:])
				elev.FoldBack(hotFleet[split:])
				fail.Mix(&base, &elev, 1-s, s)
			}
			okSafe, okLive = refFillPredGrids(okSafe, okLive, n, m)
			refPopulate(&want, joint, k, n, okSafe, okLive)
			if split >= 0 {
				refPopulate(&wantHot, hotJoint, k, n, okSafe, okLive)
			}
			for cd := 0; cd <= k; cd++ {
				for bd := 0; cd+bd <= k; bd++ {
					point.ResetGroup(pointMass(cd, bd), regions, n)
					i := cd*(k+1) + bd
					refs := [3]float64{want.safe[i], want.live[i], want.both[i]}
					if split >= 0 {
						refs = [3]float64{(1-s)*refs[0] + s*wantHot.safe[i], (1-s)*refs[1] + s*wantHot.live[i], (1-s)*refs[2] + s*wantHot.both[i]}
					}
					for r, ref := range refs {
						// A cell outside the region is not in its table.
						got, ref := point.Dot(&fail, r), point.Mass(r)*dist.Clamp01(ref)
						if diff := math.Abs(got - ref); diff > 1e-13*ref+1e-300 {
							t.Fatalf("iter %d %s k=%d entry (%d, %d) region %d: %.17g, oracle %.17g", iter, m.Name(), k, cd, bd, r, got, ref)
						} else if ref > 0 {
							worst = max(worst, diff/ref)
						}
					}
					entries++
				}
			}
		}
	}
	t.Logf("%d failure-table cells within %.3g relative of the bool-grid population", entries, worst)
}

// domainCacheStats snapshots the process-wide rest-table counters; tests
// diff two snapshots around a query stream. Nothing else in the package's
// tests runs concurrently, so the deltas are this test's own.
type domainCacheCounts struct {
	RestHits, RestMisses int64
}

func domainCacheStats() domainCacheCounts {
	return domainCacheCounts{RestHits: domRestHits.Load(), RestMisses: domRestMisses.Load()}
}

// TestEvaluatorDomainsCachedMatchesReference cycles one warm evaluator
// through a stream of related domain queries — shock changes, member
// hardening, multiplier changes, model changes — and pins every answer
// against the conditioning oracles at 1e-12, while requiring that the
// stream actually exercised the rest-table fast path.
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
		checkDomainEngine(t, tag, got, f, m, ds)
	}

	check("cold", fleet, domains)

	// Shock-only change in one domain: its rest tables hit.
	ds2 := append(DomainSet(nil), domains...)
	ds2[1].ShockProb = 0.2
	check("shock change", fleet, ds2)

	// Multiplier change in one domain: its rest tables hit.
	ds3 := append(DomainSet(nil), domains...)
	ds3[2].CrashMultiplier = 35
	check("multiplier change", fleet, ds3)

	// Member hardening inside one domain: its rest tables still hit.
	f2 := append(Fleet(nil), fleet...)
	f2[4].Profile = faultcurve.Profile{PCrash: 0.003, PByz: 0.0001}
	check("member change", fleet, domains)
	check("member change applied", f2, domains)

	// Independent-node change: every rest key misses, a full walk.
	f3 := append(Fleet(nil), fleet...)
	f3[0].Domain = ""
	check("layout change", f3, domains)

	// Sign of zero: -0 is the same shock and the same multiplier as +0, so
	// it must find the rest tables +0 left behind — the first domain's on an
	// exact repeat, the moved domain's when one other domain moved — and
	// walk the fleet again only when two did.
	negZero := math.Copysign(0, -1)
	z := append(DomainSet(nil), domains...)
	z[0].ShockProb, z[0].ByzMultiplier, z[1].ShockProb = 0, 0, 0.25 // two domains moved: a full walk
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
	if after.RestHits != before.RestHits+2 || after.RestMisses != before.RestMisses+1 {
		t.Errorf("-0 after +0: stats %+v -> %+v; want two rest hits and one full walk", before, after)
	}

	end := domainCacheStats()
	if end.RestHits == start.RestHits {
		t.Fatalf("query stream never hit the rest-table fast path: %+v -> %+v", start, end)
	}
}

// TestEvaluatorDomainsColdMatchesPackageExactly pins that the engine's
// answers are deterministic, which the serving caches rely on: a fresh
// evaluator and a fresh pool (the package entry point's path) return
// bit-identical results. A cold walk answers as the fast path
// does for the first domain, so an evaluator that first absorbed a query
// differing only in that domain answers == the cold answer too, and so does
// a repeat on an evaluator whose rest tables overflowed their cap in
// between.
func TestEvaluatorDomainsColdMatchesPackageExactly(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	want, err := NewEvaluator().AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEvaluatorPool().AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cold pooled result differs from a cold evaluator's:\n got %+v\nwant %+v", got, want)
	}
	e := NewEvaluator()
	related := append(DomainSet(nil), domains...)
	related[0].ShockProb = 0.3
	if _, err := e.AnalyzeDomains(fleet, m, related); err != nil {
		t.Fatal(err)
	}
	hits := domRestHits.Load()
	fast, err := e.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if domRestHits.Load() != hits+1 {
		t.Fatal("query after a first-domain shock change missed the rest tables")
	}
	if fast != want {
		t.Fatalf("fast path after a first-domain shock change %#v differs from the cold answer %#v", fast, want)
	}

	// More layouts than any cap the engine's caches have had (every domain
	// but the last moves, so each one walks the fleet and stores three rest
	// entries), then a first-domain change, then the repeat.
	e = NewEvaluator()
	first, err := e.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	churn := append(DomainSet(nil), domains...)
	for i := 0; i < 16*maxRestCacheEntries+1; i++ {
		churn[0].ShockProb = 0.01 + 1e-5*float64(i)
		churn[1].ShockProb = 0.02 + 1e-5*float64(i)
		if _, err := e.AnalyzeDomains(fleet, m, churn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AnalyzeDomains(fleet, m, related); err != nil {
		t.Fatal(err)
	}
	again, err := e.AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("repeat after %d layouts %#v differs from the first answer %#v", 16*maxRestCacheEntries+1, again, first)
	}
}

// TestAnalyzeDomainsBlockReuse is the counter pin of the rest tables: a
// 64-point shock sweep over one domain performs one from-scratch build,
// the cold walk's independent remainder, and every later point folds only
// the swept domain onto its cached rest tables and answers from them.
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
		if builds := dist.JointBuilds() - start; builds != 1 {
			t.Fatalf("after %d sweep points: %d joint builds, want 1 (the cold remainder; the empty group here is still one unit-table build)", i+1, builds)
		}
	}
	if got := domRestHits.Load() - restHits; got < 63 {
		t.Fatalf("expected >= 63 rest-table fast-path hits, got %d", got)
	}
}

// TestAnalyzeDomainsZeroAllocs mirrors TestEvaluatorAnalyzeZeroAllocs for
// the correlated path (the satellite bugfix: package AnalyzeDomains runs
// on pooled evaluators): once warm, a repeated domain query allocates
// nothing — partition scratch, the rest key, the pass through a domain and
// the dot products all reuse evaluator-owned memory — and neither does a
// stream of full walks, which refill the entries the cap cleared.
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

	// Full walks too, once the cap has cleared entries for them to refill:
	// every query moves two domains, so every key misses.
	churn := append(DomainSet(nil), domains...)
	i := 0
	walk := func() {
		i++
		churn[0].ShockProb, churn[1].ShockProb = 0.01+1e-6*float64(i), 0.02+1e-6*float64(i)
		if _, err := e.AnalyzeDomains(fleet, m, churn); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2*maxRestCacheEntries; j++ {
		walk()
	}
	if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
		t.Fatalf("warm evaluator's full walks allocate %v/op, want 0", allocs)
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

// TestDomainsEstimateMatchesDispatch pins that the work estimate the
// serving layer admits queries under is domainLayout.work's formula, and
// that it stays above the engine's fold count: per region, c·(m + 4·Σk +
// 6·D) cell updates with c the region's whole table — the remainder's m
// folds, every domain's k nodes folded twice forward and twice backward,
// and at most six copies or mixtures per domain. It holds on many small
// domains, on two huge ones — where the 2^D conditioning the engine once
// dispatched to is only the referee now — at domain_churn's shape and at
// every BenchmarkDomainLadder rung.
func TestDomainsEstimateMatchesDispatch(t *testing.T) {
	fleet, domains := domainFleet9()
	m := NewRaft(9)
	var l domainLayout
	if err := l.resolve(fleet, domains); err != nil {
		t.Fatal(err)
	}
	work := l.work(len(fleet), modelRegions(m))
	if est := DomainsWorkEstimate(fleet, m, domains); est != work {
		t.Fatalf("estimate %g != the engine's work %g", est, work)
	}
	nearest := struct {
		tag               string
		ratio, est, folds float64
	}{ratio: math.Inf(1)}
	aboveFolds := func(tag string, fleet Fleet, m CountModel, domains DomainSet) {
		t.Helper()
		var l domainLayout
		if err := l.resolve(fleet, domains); err != nil {
			t.Fatal(err)
		}
		k := len(fleet) - len(l.indep)
		var folds float64
		for _, r := range modelRegions(m) {
			folds += float64(r.Cells(len(fleet), len(fleet))) * float64(len(l.indep)+4*k+6*len(l.act))
		}
		est := DomainsWorkEstimate(fleet, m, domains)
		if est < folds {
			t.Errorf("%s: estimate %g below the engine's fold count %g", tag, est, folds)
		}
		if est/folds < nearest.ratio {
			nearest.ratio, nearest.tag, nearest.est, nearest.folds = est/folds, tag, est, folds
		}
	}
	aboveFolds("D=3", fleet, m, domains)

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
	bigModel := NewRaft(n)
	work = DomainsWorkEstimate(bigFleet, bigModel, bigDomains)
	if cw := math.Ldexp(n*n*n, 2); work >= cw {
		t.Fatalf("two-halves estimate %g not below the 2^D conditioning's %g", work, cw)
	}
	aboveFolds("two halves", bigFleet, bigModel, bigDomains)
	got, err := NewEvaluator().AnalyzeDomains(bigFleet, bigModel, bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	start := dist.JointBuilds()
	want, err := AnalyzeDomainsConditioned(bigFleet, bigModel, bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	if builds := dist.JointBuilds() - start; builds != 4 {
		t.Fatalf("conditioned D=2 performed %d region passes, want 2^2 = 4", builds)
	}
	resultsClose(t, "two halves vs conditioned", got, want, 1e-12)

	for _, rung := range [][2]int{{48, 4}, {64, 4}, {64, 16}, {256, 4}, {256, 16}, {1024, 4}, {1024, 16}} {
		n, d := rung[0], rung[1]
		fleet, domains := ladderFleet(n, d)
		for _, m := range []CountModel{NewRaft(n), NewPBFTForN(n)} {
			aboveFolds(fmt.Sprintf("%s N=%d D=%d", m.Name(), n, d), fleet, m, domains)
		}
	}
	t.Logf("nearest: %s, estimate %.3g over %.3g folded cells", nearest.tag, nearest.est, nearest.folds)
}

// TestEvaluatorDomainsLargeFleet exercises the correlated path at the
// sizes the ROADMAP called a wall: the dispatcher prices an N=256, D=8
// layout far under the serving work bound, and an N=128 query stream runs
// its forward and backward walks cold, with the incremental follow-up
// answered from rest tables after folding only the perturbed zone onto
// them.
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
	if est := DomainsWorkEstimate(fleet256, NewRaft(256), domains256); est >= 2e10 {
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
	want, err := AnalyzeDomainsConditioned(fleet, m, domains)
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
		t.Fatalf("shock-perturbed N=128 query performed %d builds, want 0 (the zone folds onto its cached rest tables)", builds)
	}
	want2, err := AnalyzeDomainsConditioned(fleet, m, ds2)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "N=128 incremental vs reference", got2, want2, 1e-12)
}

// BenchmarkDomainLadder prices the domain engine at N = 64, 256 and 1024
// nodes in D = 4 and 16 zones, round-robin, on heterogeneous fleets drawn
// from the bench's domain_churn range (ladderFleet), for majority Raft and
// textbook PBFT: cold is one walk on a fresh evaluator (the remainder's
// fold and every zone's forward and failure tables), warm a new shock for
// zone 0 on a warm evaluator (the rest-table fast path at the first
// position, the one answer == a cold walk), warm-random a new shock in
// [0.001, 0.02] for a random zone (domain_churn's stream: the fast path at
// that zone's position), and joint the 2^D conditioning over full joint
// tables that the engine is pinned against — run only where it finishes
// in seconds (D = 4, N <= 256).
func BenchmarkDomainLadder(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, d := range []int{4, 16} {
			fleet, domains := ladderFleet(n, d)
			for _, tc := range []struct {
				protocol string
				m        CountModel
			}{{"raft", NewRaft(n)}, {"pbft", NewPBFTForN(n)}} {
				m, name := tc.m, fmt.Sprintf("%s/N=%d/D=%d", tc.protocol, n, d)
				b.Run(name+"/cold", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := NewEvaluator().AnalyzeDomains(fleet, m, domains); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(name+"/warm", func(b *testing.B) {
					e := NewEvaluator()
					ds := append(DomainSet(nil), domains...)
					if _, err := e.AnalyzeDomains(fleet, m, ds); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ds[0].ShockProb = 0.001 + 1e-9*float64(i)
						if _, err := e.AnalyzeDomains(fleet, m, ds); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(name+"/warm-random", func(b *testing.B) {
					e, rng := NewEvaluator(), rand.New(rand.NewSource(int64(n*d)))
					ds := append(DomainSet(nil), domains...)
					if _, err := e.AnalyzeDomains(fleet, m, ds); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ds[rng.Intn(d)].ShockProb = 0.001 + 0.019*rng.Float64()
						if _, err := e.AnalyzeDomains(fleet, m, ds); err != nil {
							b.Fatal(err)
						}
					}
				})
				if d == 4 && n <= 256 {
					b.Run(name+"/joint", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							jointConditioned(b, fleet, m, domains)
						}
					})
				}
			}
		}
	}
}

// TestDomainsCertainFailureReadsZero is the referee leg whose true answer
// is exactly 0: fleets where certain crashes, in domains and in the
// remainder, put more nodes down than a region allows. The 2^D referee
// reads exactly 0; the engine subtracts a failure dot product from a mass
// that equal it in exact arithmetic, so its answer carries round-off, which
// must stay within 1e-15 on a cold walk and on the fast path after a
// domain's shock moves.
func TestDomainsCertainFailureReadsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	worst := 0.0
	for iter := 0; iter < 200; iter++ {
		n := 5 + rng.Intn(60)
		d := 1 + rng.Intn(4)
		fleet, domains := ladderFleet(n, d)
		for i := range fleet {
			fleet[i].Profile.PCrash *= 10 * rng.Float64()
			if rng.Intn(3) == 0 {
				fleet[i].Domain = ""
			}
		}
		// Raft and textbook PBFT both tolerate fewer than half the nodes
		// down, so n/2 + 1 certain crashes leave neither live. A
		// power-of-two multiplier keeps an elevated certain crash exactly 1
		// (Elevate rescales a total above 1).
		for _, i := range rng.Perm(n)[:n/2+1] {
			fleet[i].Profile = faultcurve.Profile{PCrash: 1}
		}
		for j := range domains {
			domains[j].CrashMultiplier = float64(int(1) << rng.Intn(4))
		}
		e := NewEvaluator()
		for _, m := range []CountModel{NewRaft(n), NewPBFTForN(n)} {
			ds := append(DomainSet(nil), domains...)
			for step := 0; step < 2; step++ {
				got, err := e.AnalyzeDomains(fleet, m, ds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := AnalyzeDomainsConditioned(fleet, m, ds)
				if err != nil {
					t.Fatal(err)
				}
				if want.Live != 0 || want.SafeAndLive != 0 {
					t.Fatalf("iter %d %s: referee reads live %g, safe-and-live %g, want exactly 0", iter, m.Name(), want.Live, want.SafeAndLive)
				}
				if got.Live > 1e-15 || got.SafeAndLive > 1e-15 {
					t.Fatalf("iter %d %s step %d: engine reads live %.3g, safe-and-live %.3g, want <= 1e-15", iter, m.Name(), step, got.Live, got.SafeAndLive)
				}
				worst = max(worst, got.Live, got.SafeAndLive)
				ds[rng.Intn(d)].ShockProb = rng.Float64()
			}
		}
	}
	t.Logf("largest answer whose true value is 0: %.3g", worst)
}

// FuzzDomainEngine drives the domain engine on fleets the fuzzer shapes:
// up to 24 nodes, each in one of 1 to 4 domains or the independent
// remainder, probabilities scaled by the fuzzer, certain crashes and
// certain Byzantine nodes planted, shocks anywhere in [0, 1] and
// multipliers up to 20, under majority Raft, textbook PBFT and a q/qt PBFT
// sizing whose live region is a general table where n allows. The cold
// answer, and the warm answer after each domain in turn moves (the fast
// path at that domain), must agree with AnalyzeDomainsConditioned at
// TestDomainEnginesAgree's 1e-12.
func FuzzDomainEngine(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(3), 0.05, 0.005, uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(24), uint8(4), 0.3, 0.1, uint8(5), uint8(3), uint8(4))
	f.Add(int64(3), uint8(16), uint8(1), 0.5, 0.5, uint8(16), uint8(1), uint8(2))
	f.Add(int64(4), uint8(7), uint8(2), 1e-30, 0.2, uint8(2), uint8(9), uint8(1))
	f.Add(int64(5), uint8(1), uint8(4), 0.9, 0.9, uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, nDomains uint8, crashScale, byzScale float64, certain, q, qt uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+int(size)%24, 1+int(nDomains)%4
		scale := func(x float64) float64 {
			if !(x > 0) { // NaN and negatives too
				return 0
			}
			return min(x, 0.5)
		}
		cs, bs := scale(crashScale), scale(byzScale)
		domains := make(DomainSet, d)
		for j := range domains {
			domains[j] = faultcurve.Domain{Name: fmt.Sprintf("zone-%d", j), ShockProb: rng.Float64(),
				CrashMultiplier: 20 * rng.Float64(), ByzMultiplier: 20 * rng.Float64()}
		}
		fleet := make(Fleet, n)
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: cs * rng.Float64(), PByz: bs * rng.Float64()}
			if j := rng.Intn(d + 1); j < d {
				fleet[i].Domain = domains[j].Name
			}
		}
		for k := 0; k < int(certain)%(n+1); k++ {
			fleet[rng.Intn(n)].Profile = [...]faultcurve.Profile{{PCrash: 1}, {PByz: 1}}[rng.Intn(2)]
		}
		qq := n/2 + 1 + int(q)%(n-n/2)
		models := []CountModel{NewRaft(n), NewPBFTForN(n), PBFT{NNodes: n, QEq: qq, QPer: qq, QVC: qq, QVCT: 1 + int(qt)%qq}}
		e := NewEvaluator()
		for _, m := range models {
			check := func(tag string, ds DomainSet) {
				t.Helper()
				got, err := e.AnalyzeDomains(fleet, m, ds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := AnalyzeDomainsConditioned(fleet, m, ds)
				if err != nil {
					t.Fatal(err)
				}
				resultsClose(t, fmt.Sprintf("%s %s", m.Name(), tag), got, want, 1e-12)
			}
			check("cold", domains)
			for j := range domains {
				ds := append(DomainSet(nil), domains...)
				ds[j].ShockProb, ds[j].CrashMultiplier = rng.Float64(), 20*rng.Float64()
				check(fmt.Sprintf("domain %d moved", j), ds)
			}
		}
	})
}

// ladderFleet is BenchmarkDomainLadder's fleet: n heterogeneous nodes
// drawn from the bench's domain_churn range, round-robin over d zones.
func ladderFleet(n, d int) (Fleet, DomainSet) {
	rng := rand.New(rand.NewSource(int64(n * d)))
	fleet := make(Fleet, n)
	domains := make(DomainSet, d)
	for j := range domains {
		domains[j] = faultcurve.Domain{Name: fmt.Sprintf("zone-%d", j), ShockProb: 0.001 + 0.019*rng.Float64(),
			CrashMultiplier: 2 + 6*rng.Float64(), ByzMultiplier: 1}
	}
	for i := range fleet {
		fleet[i] = Node{Profile: faultcurve.Profile{PCrash: 0.002 + 0.028*rng.Float64(), PByz: 0.0001 + 0.0019*rng.Float64()},
			Domain: domains[i%d].Name}
	}
	return fleet, domains
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
