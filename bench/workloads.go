package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// A workload is a seeded, infinite request stream: request k is a pure
// function of (seed, k), so two runs with one seed send the daemon the same
// bytes in the same order no matter how fast either run goes. Requests
// [0, warm) are the fixed-count warm-up; the measured phases continue from
// warm. The daemon only ever sees generated bodies.
type workload struct {
	name string
	// warm is the fixed warm-up request count (part of setup_s).
	warm int
	// verifyEvery picks the deterministic 1-in-K sample whose answers are
	// recomputed through the reference engines after the timed phase.
	verifyEvery int
	// openRPS is the open-loop diagnostic's constant arrival rate, pinned
	// at about half of the closed-loop throughput_rps measured at the
	// commit that defined the benchmark (bench/baseline-seed1.json).
	openRPS float64
	// replay is how many measured-phase requests the in-process traced
	// replay covers.
	replay  int
	request func(k int) request
}

// Request classes. Every class maps to one endpoint and one reference check.
const (
	classAnalyze = iota
	classOptimize
	classTailExact
	classTailImportance
	classSweep
	classBatch
	numClasses
)

var classNames = [numClasses]string{"analyze", "optimize", "tail_exact", "tail_importance", "sweep", "batch"}

var classPaths = [numClasses]string{"/v1/analyze", "/v1/optimize", "/v1/tail", "/v1/tail", "/v1/sweep", "/v1/batch"}

// Expected "cached" verdicts of a response.
const (
	cachedFalse = iota
	cachedTrue
	cachedNone // sweep streams and batch envelopes carry no top-level verdict
)

type request struct {
	class  int
	cached int
	body   []byte
}

func (r request) path() string { return classPaths[r.class] }

var workloadNames = []string{"hot_small", "cold_large", "domain_churn", "solver_mix"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "hot_small":
		return hotSmall(seed), nil
	case "cold_large":
		return coldLarge(seed), nil
	case "domain_churn":
		return domainChurn(seed), nil
	case "solver_mix":
		return solverMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rng is splitmix64: tiny, seedable per request, and identical everywhere.
type rng uint64

// streamRNG derives request k's generator from the run seed; the stream tag
// keeps the workloads' streams disjoint under one seed.
func streamRNG(seed uint64, stream, k int) *rng {
	r := rng(seed*0x9e3779b97f4a7c15 ^ uint64(stream)<<56 ^ uint64(k)*0xd1342543de82ef95)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// node and domain are the generator's view of the wire specs; bodies are
// appended by hand so generating a request costs the load generator
// microseconds, not a reflection walk. TestBodiesDecodeStrictly pins the
// spelling against the service's own request types.
type node struct {
	name         string
	pCrash, pByz float64
	domain       string
}

type domain struct {
	name                      string
	shock, crashMult, byzMult float64
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func appendModel(b []byte, protocol string, n int) []byte {
	b = append(b, `"model":{"protocol":"`...)
	b = append(b, protocol...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '}')
}

func appendFleet(b []byte, nodes []node) []byte {
	b = append(b, `"fleet":[`...)
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		b = append(b, n.name...)
		b = append(b, `","p_crash":`...)
		b = appendFloat(b, n.pCrash)
		b = append(b, `,"p_byz":`...)
		b = appendFloat(b, n.pByz)
		if n.domain != "" {
			b = append(b, `,"domain":"`...)
			b = append(b, n.domain...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendDomains(b []byte, ds []domain) []byte {
	b = append(b, `"domains":[`...)
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		b = append(b, d.name...)
		b = append(b, `","shock":`...)
		b = appendFloat(b, d.shock)
		b = append(b, `,"crash_mult":`...)
		b = appendFloat(b, d.crashMult)
		b = append(b, `,"byz_mult":`...)
		b = appendFloat(b, d.byzMult)
		b = append(b, '}')
	}
	return append(b, ']')
}

// fleet draws n heterogeneous nodes: crash mass in [cLo, cHi), Byzantine
// mass in [bLo, bHi).
func fleet(r *rng, prefix string, n int, cLo, cHi, bLo, bHi float64) []node {
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i] = node{
			name:   prefix + strconv.Itoa(i),
			pCrash: r.between(cLo, cHi),
			pByz:   r.between(bLo, bHi),
		}
	}
	return nodes
}

func analyzeBody(protocol string, nodes []node, domains []domain) []byte {
	b := make([]byte, 0, 64+64*len(nodes))
	b = append(b, '{')
	b = appendModel(b, protocol, len(nodes))
	b = append(b, ',')
	b = appendFleet(b, nodes)
	if len(domains) > 0 {
		b = append(b, ',')
		b = appendDomains(b, domains)
	}
	return append(b, '}')
}

// hotSmall is dashboard polling: 64 named heterogeneous raft/pbft fleets of
// 3..25 nodes, asked for with Zipf(1.1) popularity after every one of them
// has been computed once. The engine does nothing in the measured phase.
func hotSmall(seed uint64) *workload {
	const fleets, stream = 64, 1
	bodies := make([][]byte, fleets)
	for i := range bodies {
		// Sizes and protocols go by popularity rank, not by seed: the seed
		// draws the probabilities, so every seed costs the daemon the same.
		r := streamRNG(seed, stream, -1-i)
		n := 3 + 11*i%23
		prefix := "f" + strconv.Itoa(i) + "-n"
		if i%2 == 0 {
			bodies[i] = analyzeBody("raft", fleet(r, prefix, n, 0.001, 0.05, 0, 0.002), nil)
		} else {
			bodies[i] = analyzeBody("pbft", fleet(r, prefix, max(n, 4), 0.001, 0.02, 0.001, 0.02), nil)
		}
	}
	cdf := make([]float64, fleets)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -1.1)
		cdf[i] = sum
	}
	w := &workload{
		name:        "hot_small",
		warm:        16 * fleets,
		verifyEvery: 997,
		openRPS:     4000,
		replay:      4000,
	}
	w.request = func(k int) request {
		if k < w.warm {
			return request{class: classAnalyze, cached: boolCached(k >= fleets), body: bodies[k%fleets]}
		}
		u := streamRNG(seed, stream, k).float() * sum
		return request{class: classAnalyze, cached: cachedTrue, body: bodies[sort.SearchFloat64s(cdf, u)]}
	}
	return w
}

func boolCached(b bool) int {
	if b {
		return cachedTrue
	}
	return cachedFalse
}

// coldLarge is capacity planning: every request is a unique heterogeneous
// raft fleet at N = 256 with crash and Byzantine mass on every node, so
// each one is a cache miss that costs one O(N^3) joint-DP build.
func coldLarge(seed uint64) *workload {
	const n, stream = 256, 2
	return &workload{
		name:        "cold_large",
		warm:        24,
		verifyEvery: 41,
		openRPS:     40,
		replay:      100,
		request: func(k int) request {
			r := streamRNG(seed, stream, k)
			return request{class: classAnalyze, cached: cachedFalse,
				body: analyzeBody("raft", fleet(r, "n", n, 0.005, 0.05, 0.0001, 0.002), nil)}
		},
	}
}

// domainChurn is what-if analysis on correlated zones: 2 base fleets of 48
// nodes spread round-robin over 4 zones; each request changes one zone's
// shock and crash multiplier. The fingerprint is always new (L1 misses and
// evicts constantly) while the evaluator's rest tables answer in O(k^2).
//
// The sizes are what keeps the workload steady. Every evaluator the
// daemon's sync.Pool hands out must first run one full recombination per
// (base, zone) pair before its rest tables answer, and the pool drops and
// re-creates evaluators about once per thousand requests. At 8 bases of 96
// nodes that learning is 32 recombinations of ~35 ms, a second of CPU
// arriving a few times per run: five 10 s runs read 1282..2577 rps. At 2
// bases of 48 nodes it is 8 recombinations of ~2.5 ms, and the same five
// runs read 3404..3746 rps. The churn stays visible, ungated, as
// core.pool_allocs_per_kreq and core.rest_table_hit_share.
func domainChurn(seed uint64) *workload {
	const bases, n, zones, stream = 2, 48, 4, 3
	zoneNames := [zones]string{"zone-a", "zone-b", "zone-c", "zone-d"}
	prefixes := make([][]byte, bases)
	baseDomains := make([][]domain, bases)
	for i := range prefixes {
		r := streamRNG(seed, stream, -1-i)
		nodes := fleet(r, "b"+strconv.Itoa(i)+"-n", n, 0.002, 0.03, 0.0001, 0.002)
		for j := range nodes {
			nodes[j].domain = zoneNames[j%zones]
		}
		b := append([]byte{'{'}, appendModel(nil, "raft", n)...)
		b = append(b, ',')
		b = appendFleet(b, nodes)
		prefixes[i] = append(b, ',')
		for _, z := range zoneNames {
			baseDomains[i] = append(baseDomains[i], domain{name: z, shock: r.between(0.001, 0.02), crashMult: r.between(2, 8), byzMult: 1})
		}
	}
	return &workload{
		name:        "domain_churn",
		warm:        512,
		verifyEvery: 797,
		openRPS:     1800,
		replay:      3000,
		request: func(k int) request {
			r := streamRNG(seed, stream, k)
			base, zone := r.intn(bases), r.intn(zones)
			ds := append([]domain(nil), baseDomains[base]...)
			ds[zone].shock = r.between(0.0005, 0.05)
			ds[zone].crashMult = r.between(1.5, 10)
			b := make([]byte, 0, len(prefixes[base])+128*zones)
			b = append(b, prefixes[base]...)
			b = appendDomains(b, ds)
			return request{class: classAnalyze, cached: cachedFalse, body: append(b, '}')}
		},
	}
}

// solverCycle is solver_mix's deterministic 20-slot class cycle: 50 %
// optimize, 20 % exact tail, 15 % sweep, 10 % importance tail, 5 % batch.
// The proportions put the median inside the optimize class and the 95th
// percentile inside the importance-sampler class.
var solverCycle = [20]int{
	classOptimize, classTailExact, classOptimize, classSweep, classOptimize,
	classTailImportance, classOptimize, classTailExact, classOptimize, classSweep,
	classOptimize, classBatch, classOptimize, classTailExact, classOptimize,
	classSweep, classOptimize, classTailImportance, classOptimize, classTailExact,
}

// solverMix is a planner session in which every request misses.
func solverMix(seed uint64) *workload {
	const stream = 4
	return &workload{
		name:        "solver_mix",
		warm:        80,
		verifyEvery: 37,
		openRPS:     100,
		replay:      300,
		request: func(k int) request {
			r := streamRNG(seed, stream, k)
			class := solverCycle[k%len(solverCycle)]
			req := request{class: class, cached: cachedFalse}
			switch class {
			case classOptimize:
				b := append([]byte{'{'}, appendModel(nil, "raft", 5)...)
				b = append(b, ',')
				b = appendFleet(b, fleet(r, "n", 5, 0.01, 0.08, 0, 0.001))
				b = append(b, `,"budget":`...)
				b = appendFloat(b, r.between(1, 4))
				req.body = append(b, `,"curve":{"floor_frac":0.1,"scale":1}}`...)
			case classTailExact, classTailImportance:
				b := append([]byte{'{'}, appendModel(nil, "raft", 25)...)
				b = append(b, ',')
				b = appendFleet(b, fleet(r, "n", 25, 0.05, 0.15, 0, 0.001))
				b = append(b, `,"event":"not_live"`...)
				if class == classTailImportance {
					b = append(b, `,"method":"importance","samples":50000,"seed":`...)
					b = strconv.AppendInt(b, int64(1+r.intn(1<<30)), 10)
				} else {
					b = append(b, `,"method":"exact"`...)
				}
				req.body = append(b, '}')
			case classSweep:
				// 8 sizes x 4 probabilities = 32 cells; the probabilities are
				// unique per request, so every cell misses.
				b := []byte(`{"protocol":"raft","ns":[3,5,7,9,11,13,15,17],"ps":[`)
				for i := 0; i < 4; i++ {
					if i > 0 {
						b = append(b, ',')
					}
					b = appendFloat(b, r.between(0.001, 0.08))
				}
				req.body = append(b, `]}`...)
				req.cached = cachedNone
			case classBatch:
				// 16 analyze items, each of 8 distinct fleets sent twice.
				var items [8][]byte
				for i := range items {
					items[i] = analyzeBody("raft", fleet(r, "n", 9+2*(i%4), 0.005, 0.05, 0, 0.001), nil)
				}
				b := []byte(`{"items":[`)
				for i := 0; i < 16; i++ {
					if i > 0 {
						b = append(b, ',')
					}
					b = append(b, `{"analyze":`...)
					b = append(b, items[i%8]...)
					b = append(b, '}')
				}
				req.body = append(b, `]}`...)
				req.cached = cachedNone
			}
			return req
		},
	}
}
