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
// joint-table engine, kept as the oracle of the region tables' Shifted
// rest: the model's predicates evaluated once per (c, b) cell of the whole
// n-node fleet into bool grids, then every cell of the rest's joint table
// looked up at its shifted position and folded into three compensated
// sums per entry (cd, bd), the faults the domain contributes.
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
// mass under which each predicate holds when the domain contributes
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

// pointMass is the group of cd always-crashed and bd always-Byzantine
// nodes: its tables hold all their mass on the one cell (cd, bd), so a dot
// product against Shifted tables reads that cell's entry out.
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

// TestRestTablesMatchRef pins every rest-table entry — the Shifted tables
// of the rest of the fleet, read out at each (cd, bd) a domain of k nodes
// can contribute — to the bool-grid population over the rest's joint
// table, at 1e-13 relative: rest tables over random fleets (never-failing,
// never-correct and always-Byzantine nodes mixed in) and over convolutions
// of two, domains of 0 to 12 nodes, both protocols at the region-pass
// models and random sizings — empty regions and regions the domain alone
// can leave included. One set of tables is reused throughout, as the
// evaluator's cache reuses them.
func TestRestTablesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var rest, a, b, shifted, point dist.RegionPass
	var want refRest
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
		split := -1
		if iter%2 == 1 {
			split = rng.Intn(nr + 1)
			restFleet = append(triStates(regionFleet(rng, split, false)), triStates(regionFleet(rng, nr-split, iter%4 == 1))...)
		}
		joint := dist.NewJointCrashByz(restFleet)
		for _, m := range append(regionModels(n), randomSizing(rng, n), randomSizing(rng, n)) {
			regions := modelRegions(m)
			if split < 0 {
				rest.ResetGroup(restFleet, regions, n)
			} else {
				a.ResetGroup(restFleet[:split], regions, n)
				b.ResetGroup(restFleet[split:], regions, n)
				rest.Convolve(&a, &b)
			}
			shifted.Shifted(&rest)
			okSafe, okLive = refFillPredGrids(okSafe, okLive, n, m)
			refPopulate(&want, joint, k, n, okSafe, okLive)
			for cd := 0; cd <= k; cd++ {
				for bd := 0; cd+bd <= k; bd++ {
					point.ResetGroup(pointMass(cd, bd), regions, n)
					i := cd*(k+1) + bd
					for r, ref := range []float64{want.safe[i], want.live[i], want.both[i]} {
						got, ref := point.Dot(&shifted, r), dist.Clamp01(ref)
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
	t.Logf("%d rest-table entries within %.3g relative of the bool-grid population", entries, worst)
}

// BenchmarkRestTables prices the cold recombination's rest-table cost for
// one zone at domain_churn's shape — a 48-node fleet in 4 zones of 12, so
// one 12-node zone over a 36-node rest — for majority Raft and textbook
// PBFT: region is the engine's (the rest's Shifted tables, from its
// region tables), ref the joint-table engine's bool-grid population it
// replaced (the grids filled for the whole fleet, then every rest cell
// looked up per entry).
func BenchmarkRestTables(b *testing.B) {
	const n, k = 48, 12
	rng := rand.New(rand.NewSource(48))
	tri := make([]dist.TriState, n-k)
	for i := range tri {
		tri[i] = dist.TriState{PCrash: 0.002 + 0.028*rng.Float64(), PByz: 0.0001 + 0.0019*rng.Float64()}
	}
	joint := dist.NewJointCrashByz(tri)
	for _, tc := range []struct {
		protocol string
		m        CountModel
	}{{"raft", NewRaft(n)}, {"pbft", NewPBFTForN(n)}} {
		m := tc.m
		b.Run(fmt.Sprintf("%s/N=%d/k=%d/region", tc.protocol, n, k), func(b *testing.B) {
			var rest, shifted dist.RegionPass
			rest.ResetGroup(tri, modelRegions(m), n)
			for i := 0; i < b.N; i++ {
				shifted.Shifted(&rest)
			}
		})
		b.Run(fmt.Sprintf("%s/N=%d/k=%d/ref", tc.protocol, n, k), func(b *testing.B) {
			var rt refRest
			var okSafe, okLive []bool
			for i := 0; i < b.N; i++ {
				okSafe, okLive = refFillPredGrids(okSafe, okLive, n, m)
				refPopulate(&rt, joint, k, n, okSafe, okLive)
			}
		})
	}
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

	// Independent-node change: every rest key misses, full recombination.
	f3 := append(Fleet(nil), fleet...)
	f3[0].Domain = ""
	check("layout change", f3, domains)

	// Sign of zero: -0 is the same shock and the same multiplier as +0, so
	// it must find the rest tables +0 left behind — the first domain's on an
	// exact repeat, the moved domain's when one other domain moved — and
	// recombine only when two did.
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
	if after.RestHits != before.RestHits+2 || after.RestMisses != before.RestMisses+1 {
		t.Errorf("-0 after +0: stats %+v -> %+v; want two rest hits and one recombination", before, after)
	}

	end := domainCacheStats()
	if end.RestHits == start.RestHits {
		t.Fatalf("query stream never hit the rest-table fast path: %+v -> %+v", start, end)
	}
}

// TestEvaluatorDomainsColdMatchesPackageExactly pins that the engine's
// answers are deterministic, which the serving caches rely on: a fresh
// evaluator and a fresh pool (the package entry point's path) return
// bit-identical results. A cold recombination answers as the fast path
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
	// but the last moves, so each one recombines and stores three rest
	// tables), then a first-domain change, then the repeat.
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
// 64-point shock sweep over one domain performs the cold query's block
// folds once, and every later point only refolds that domain's two blocks
// and answers from the rest tables — against 64 full recombinations (7
// folds per point at D=3) without them.
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
	// sweep point folds the swept domain's base and elevated block.
	const coldBuilds, pointBuilds = 7, 2
	if want := int64(coldBuilds + 63*pointBuilds); builds != want {
		t.Fatalf("64-point shock sweep performed %d joint builds, want %d", builds, want)
	}

	if got := domRestHits.Load() - restHits; got < 63 {
		t.Fatalf("expected >= 63 rest-table fast-path hits, got %d", got)
	}
}

// TestAnalyzeDomainsZeroAllocs mirrors TestEvaluatorAnalyzeZeroAllocs for
// the correlated path (the satellite bugfix: package AnalyzeDomains runs
// on pooled evaluators): once warm, a repeated domain query allocates
// nothing — partition scratch, the rest key, the block folds, the mixture
// and the rest-table dot product all reuse evaluator-owned memory.
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

// TestDomainsEstimateMatchesDispatch pins that the work estimate the
// serving layer admits queries under prices the one engine every domain
// query runs on, and upper-bounds its measured from-scratch builds: on many
// small domains, and on two huge ones — where the 2^D conditioning the
// engine once dispatched to is only the referee now.
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
	start := dist.JointBuilds()
	if _, err := NewEvaluator().AnalyzeDomains(fleet, m, domains); err != nil {
		t.Fatal(err)
	}
	if builds := float64(dist.JointBuilds() - start); builds != 7 || builds > work {
		t.Fatalf("D=3: measured %v builds, want 7 (the remainder and 2 per domain) within the estimate %v", builds, work)
	}

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
	start = dist.JointBuilds()
	got, err := NewEvaluator().AnalyzeDomains(bigFleet, bigModel, bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	// The empty remainder, and a base and an elevated block per half.
	if builds := dist.JointBuilds() - start; builds != 5 || float64(builds) > work {
		t.Fatalf("two halves: %d builds, want 5 within the estimate %v", builds, work)
	}
	start = dist.JointBuilds()
	want, err := AnalyzeDomainsConditioned(bigFleet, bigModel, bigDomains)
	if err != nil {
		t.Fatal(err)
	}
	if builds := dist.JointBuilds() - start; builds != 4 {
		t.Fatalf("conditioned D=2 performed %d region passes, want 2^2 = 4", builds)
	}
	resultsClose(t, "two halves vs conditioned", got, want, 1e-12)
}

// TestEvaluatorDomainsLargeFleet exercises the correlated path at the
// sizes the ROADMAP called a wall: the dispatcher prices an N=256, D=8
// layout far under the serving work bound, and an N=128 query stream runs
// its block convolutions cold, with the incremental follow-up answered
// from rest tables after folding only the perturbed zone's two blocks.
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
	if builds := dist.JointBuilds() - start; builds != 2 {
		t.Fatalf("shock-perturbed N=128 query performed %d builds, want 2 (the zone's base and elevated block)", builds)
	}
	want2, err := AnalyzeDomainsConditioned(fleet, m, ds2)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "N=128 incremental vs reference", got2, want2, 1e-12)
}

// BenchmarkDomainLadder prices the domain engine at N = 64, 256 and 1024
// nodes in D = 4 and 16 zones, round-robin, on heterogeneous fleets drawn
// from the bench's domain_churn range, for majority Raft and textbook
// PBFT: cold is one recombination on a fresh evaluator (block folds, the
// prefix chain, and every zone's rest tables), warm a new shock for one
// zone on a warm evaluator (the rest-table fast path), and joint the
// 2^D conditioning over full joint tables that the engine is pinned
// against — run only where it finishes in seconds (D = 4, N <= 256).
func BenchmarkDomainLadder(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, d := range []int{4, 16} {
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
