package core

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/obs"
)

// This file is the correlated-domain engine: the one exact engine every
// populated domain layout runs on, with the per-domain rest tables that let
// an Evaluator answer a stream of related domain queries — a shock sweep,
// one zone changing per request — without folding the domains a query did
// not change, and the gradient that reads a walk's tables. See DESIGN.md
// "Correlated-domain rest tables" and "Gradients under domains".
//
// Every table is a dist.RegionPass truncated to the model's safe, live and
// safe-and-live regions and laid out for the whole fleet; for Raft and
// textbook PBFT each region is a row. A domain's shock mixes a base and an
// elevated fold, so a table passes through domain d as (1 − s_d)·fold(T,
// base members) + s_d·fold(T, elevated members): forward for count tables,
// backward for failure tables, whose cell x holds P[x + Y ∉ region]. The
// rest tables of the populated domain at position p are F_p, the count
// tables of the independent remainder and domains 0..p−1, and Ḡ_{p+1}, the
// failure tables of domains p+1..D−1. With T = F_p passed through domain p,
// each region reads T.Mass − T.Dot(Ḡ_{p+1}).
//
//  1. Fast path. A query that differs from a cached layout ONLY inside
//     domain p — its shock probability, its multipliers, its members'
//     profiles — passes the cached F_p through p and takes one dot product
//     per region. The search runs from the first populated domain.
//  2. Full path. The remainder is folded once, a forward walk through the
//     domains fills every F_p and a backward walk from empty failure
//     tables every Ḡ_{p+1}; the answer is then read exactly as path 1
//     reads it at p = 0, so an exact repeat answers == the cold answer on
//     an evaluator however warm. Evaluator.Gradient runs the same walk into
//     tables of its own, keyed by nothing.
//
// A rest key for the domain at position pos hashes the model parameters,
// pos, d's member count, the independent nodes' profile bits and every
// OTHER populated domain's (shock, multipliers, member profile bits) in
// order — everything F_pos and Ḡ_{pos+1} read, and nothing about d itself
// beyond its size, so perturbing d never invalidates its entry. Every
// float goes in as canonBits, the query fingerprint's encoder: exact
// IEEE-754 bits with -0 folded onto +0 (the same probability, the same
// tables), so a "-0" shock or multiplier is a hit, not a recombination.
// A query's keys share every piece but their own domain's, and the
// fingerprint hashes the same pieces, so a key is assembled from the ones
// the Query encoded (restKeyFor): each node's profile bits are sorted once
// per query, not once per position tried nor again for the fingerprint.
//
// All workspaces live on the owning Evaluator: no locks, no sharing, zero
// steady-state allocations (pinned by TestAnalyzeDomainsZeroAllocs).

// restKeyDomain versions the rest-key encoding, separate from the query
// fingerprint domain so the two key spaces can never collide.
const restKeyDomain = "probcons-rest-v1"

// maxRestCacheEntries is a clear-on-overflow bound. A sweep touches a
// handful of layouts; the cap only guards against adversarial
// query streams growing the map without bound.
const maxRestCacheEntries = 256

type restKey = [sha256.Size]byte

// Rest-table traffic, process-wide: /metrics aggregates it across the whole
// evaluator pool, and the package's tests prove reuse by diffing these
// around a query stream (the companion of dist.JointBuilds).
var (
	domRestHits = obs.Default().Counter("probcons_engine_rest_table_hits_total",
		"Correlated queries answered from one domain's cached rest tables (a pass through that domain and one dot product per region).", nil)
	domRestMisses = obs.Default().Counter("probcons_engine_rest_table_misses_total",
		"Correlated queries that ran a full forward and backward walk.", nil)
)

// The block cache and the result memo are deleted, so these families are
// constantly 0. The frozen benchmark scrapes them and fails on a missing
// sample, so they stay registered.
var (
	_ = obs.Default().Counter("probcons_engine_block_cache_hits_total",
		"Retired (domains are folded per query; constantly 0); kept until the benchmark manifest drops core.block_cache_hit_share.", nil)
	_ = obs.Default().Counter("probcons_engine_block_cache_misses_total",
		"Retired (domains are folded per query; constantly 0); kept until the benchmark manifest drops core.block_cache_hit_share.", nil)
	_ = obs.Default().Counter("probcons_engine_result_memo_hits_total",
		"Retired (a full walk answers as the fast path does; constantly 0); kept until the benchmark manifest drops core.result_memo_hits_per_req.", nil)
)

// domainState is the Evaluator's correlated-domain workspace: the
// rest-table cache and the scratch a pass through a domain folds into. The
// resolved Query comes in with each call.
type domainState struct {
	regions  [3]dist.Region // the query model's safe, live, safe-and-live
	keyBuf   []byte
	restKeys []restKey
	tri      []dist.TriState

	restCache map[restKey]*restEntry
	spare     []*restEntry // entries no key reaches (cleared by the cap, or the gradient's), refilled by later walks
	entries   []*restEntry // the entries a full walk fills, by position

	// Scratch, refilled per pass through a domain: the running table
	// folded through its base and its elevated members, and their mixture.
	base, elev, mixed dist.RegionPass

	// Evaluator.Gradient's edge tables E and leave-one-out per branch.
	edges dist.RegionEdges
	loo   [2]dist.RegionLeaveOneOut
}

// restEntry is the rest of the fleet around the populated domain at
// position p: fwd is F_p and back is Ḡ_{p+1}.
type restEntry struct {
	fwd, back dist.RegionPass
}

func (ds *domainState) maybeEvict() {
	if len(ds.restCache) > maxRestCacheEntries {
		for _, e := range ds.restCache {
			ds.spare = append(ds.spare, e)
		}
		clear(ds.restCache)
	}
}

// restKeyFor identifies the rest tables of the populated domain at
// position pos of l.act: model bits, pos, the domain's member count, and
// the full parameterisation of everything OUTSIDE the domain — the
// independent nodes' bits and every other position's chunk, in order, from
// the pieces enc holds for the query.
func (ds *domainState) restKeyFor(enc *fingerprintEncoder, l *domainLayout, pos int) restKey {
	buf := append(ds.keyBuf[:0], restKeyDomain...)
	buf = append(buf, enc.buf[len(fingerprintDomain):enc.modelEnd]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(pos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(l.blocks[l.act[pos]])))
	buf = append(buf, 'I')
	buf = append(buf, enc.buf[enc.modelEnd:enc.indepEnd]...)
	buf = append(buf, enc.chunks[:enc.spans[pos][0]]...) // the chunks before pos
	buf = append(buf, enc.chunks[enc.spans[pos][1]:]...) // and after it
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// tris returns the given nodes as the fold reads them: at their base
// profiles when elevate is nil, else shock-elevated.
func (ds *domainState) tris(fleet Fleet, idxs []int, elevate *faultcurve.Domain) []dist.TriState {
	ds.tri = ds.tri[:0]
	for _, i := range idxs {
		p := fleet[i].Profile
		if elevate != nil {
			p = elevate.Elevate(p)
		}
		ds.tri = append(ds.tri, p.TriState())
	}
	return ds.tri
}

// through sets dst to src passed through q's domain di, backward when src
// holds failure tables.
func (ds *domainState) through(dst, src *dist.RegionPass, q *Query, di int, back bool) {
	fold := (*dist.RegionPass).Fold
	if back {
		fold = (*dist.RegionPass).FoldBack
	}
	d, idxs := &q.Domains[di], q.layout.blocks[di]
	ds.base.Set(src)
	fold(&ds.base, ds.tris(q.Fleet, idxs, nil))
	ds.elev.Set(src)
	fold(&ds.elev, ds.tris(q.Fleet, idxs, d))
	s := dist.Clamp01(d.ShockProb)
	dst.Mix(&ds.base, &ds.elev, 1-s, s)
}

// answer passes e's forward tables through q's domain di and reads each
// region's mass against e's failure tables.
func (ds *domainState) answer(e *restEntry, q *Query, di int) Result {
	ds.through(&ds.mixed, &e.fwd, q, di, false)
	read := func(i int) float64 { return dist.Clamp01(ds.mixed.Mass(i) - ds.mixed.Dot(&e.back, i)) }
	return Result{Safe: read(0), Live: read(1), SafeAndLive: read(2)}
}

// grow resizes a reused scratch slice to n elements, keeping its backing
// array whenever it is large enough. Elements already in the array —
// including ones parked past len(s) by an earlier, smaller resize — are
// kept, so slices of workspaces stay warm; elements beyond the old
// capacity are zero. Callers overwrite whatever they go on to read.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// analyzeDomains is the evaluator's domain engine over the resolved query
// q, whose layout's act is non-empty; the evaluator reads q only for the
// duration of the call, and encodes its key pieces if Fingerprint has not.
// A query whose first populated domain's rest tables are cached answers ==
// a cold walk; one answered from a later domain's rest tables agrees with
// it to ~1e-15.
func (e *Evaluator) analyzeDomains(q *Query) Result {
	ds, l := &e.dom, &q.layout
	ds.maybeEvict()
	if ds.restCache == nil {
		ds.restCache = make(map[restKey]*restEntry)
	}
	ds.regions = modelRegions(q.Model)
	D := len(l.act)

	// Fast path: the first populated domain whose rest tables survive from
	// an earlier query answers with one dot product per region after a
	// pass through that domain.
	enc := q.encode()
	ds.restKeys = ds.restKeys[:0]
	for pos, di := range l.act {
		key := ds.restKeyFor(enc, l, pos)
		ds.restKeys = append(ds.restKeys, key)
		if hit, ok := ds.restCache[key]; ok {
			domRestHits.Inc()
			return ds.answer(hit, q, di)
		}
	}
	domRestMisses.Inc()

	// Full path. Every key missed above, so each position gets an entry,
	// a spare one when the cap has cleared some.
	entries := grow(ds.entries, D)
	ds.entries = entries
	for pos, key := range ds.restKeys {
		if n := len(ds.spare); n > 0 {
			entries[pos], ds.spare = ds.spare[n-1], ds.spare[:n-1]
		} else {
			entries[pos] = &restEntry{}
		}
		ds.restCache[key] = entries[pos]
	}
	ds.walk(entries, q)

	// Answer as the fast path answers for the first domain: a repeat reads
	// these same tables in the same order.
	return ds.answer(entries[0], q, l.act[0])
}

// walk fills every populated domain's rest tables into entries: F_0 is the
// remainder, its one build, and F_p is F_{p−1} passed through domain p−1;
// Ḡ_D is empty and Ḡ_p is Ḡ_{p+1} passed back through domain p.
func (ds *domainState) walk(entries []*restEntry, q *Query) {
	n, l := len(q.Fleet), &q.layout
	D := len(l.act)
	entries[0].fwd.ResetGroup(ds.tris(q.Fleet, l.indep, nil), ds.regions, n)
	for pos := 1; pos < D; pos++ {
		ds.through(&entries[pos].fwd, &entries[pos-1].fwd, q, l.act[pos-1], false)
	}
	entries[D-1].back.ResetFailure(ds.regions, n)
	for pos := D - 2; pos >= 0; pos-- {
		ds.through(&entries[pos].back, &entries[pos+1].back, q, l.act[pos+1], true)
	}
}

// Gradient returns AnalyzeQuery's SafeAndLive for a resolved query, ==
// its cold answer, and its derivatives: edges[i] = (faulty, byz), with
// ∂SafeAndLive/∂p_crash = −faulty and ∂SafeAndLive/∂p_byz = −faulty − byz
// at node i's base profile, and shocks[d] = ∂SafeAndLive/∂s_d, 0 for a
// domain without members. With no populated domain it is one leave-one-out
// over the fleet; otherwise one walk, then per domain from the last its
// shock's derivative read off F_p and Ḡ_{p+1}, a leave-one-out per branch
// from F_p, and the edge tables passed back through it (DESIGN.md
// "Gradients under domains"). Warm, it allocates nothing.
func (e *Evaluator) Gradient(q *Query, edges [][2]float64, shocks []float64) float64 {
	fleet, domains, l, ds := q.Fleet, q.Domains, &q.layout, &e.dom
	n, D, base, elev := len(fleet), len(l.act), &ds.loo[0], &ds.loo[1]
	ds.regions = modelRegions(q.Model)
	r := ds.regions[2]
	clear(shocks)
	if D == 0 {
		e.loadTri(fleet)
		base.Reset(e.tri, r, n, nil, nil)
		for i := range edges {
			edges[i][0], edges[i][1] = base.Edges(i)
		}
		return base.Mass()
	}
	// The walk fills spare entries, which no rest key reaches.
	for len(ds.spare) < D {
		ds.spare = append(ds.spare, &restEntry{})
	}
	walked := ds.spare[len(ds.spare)-D:]
	ds.walk(walked, q)
	sl := ds.answer(walked[0], q, l.act[0]).SafeAndLive
	var to *dist.RegionEdges // E; nil before the last domain: the indicators
	for pos := D - 1; pos >= 0; pos-- {
		di, en := l.act[pos], walked[pos]
		d, idxs, s := &domains[di], l.blocks[di], dist.Clamp01(domains[di].ShockProb)
		ds.through(&ds.mixed, &en.back, q, di, true)
		shocks[di] = en.fwd.Dot(&ds.base, 2) - en.fwd.Dot(&ds.elev, 2)
		base.Reset(ds.tris(fleet, idxs, nil), r, n, &en.fwd, to)
		elev.Reset(ds.tris(fleet, idxs, d), r, n, &en.fwd, to)
		for k, i := range idxs {
			fb, zb := base.Edges(k)
			fe, ze := elev.Edges(k)
			fe, ze = elevatedEdges(d, fleet[i].Profile, fe, ze)
			edges[i] = [2]float64{(1-s)*fb + s*fe, (1-s)*zb + s*ze}
		}
		ds.edges.Mix(base.Past(), elev.Past(), 1-s, s)
		to = &ds.edges
	}
	base.Reset(ds.tris(fleet, l.indep, nil), r, n, nil, to)
	for k, i := range l.indep {
		edges[i][0], edges[i][1] = base.Edges(k)
	}
	return sl
}

// elevatedEdges carries a member's edges (f, z) at its elevated profile to
// its base profile p through Elevate's Jacobian: each multiplier scales its
// component or, where Elevate renormalises, only the split moves.
func elevatedEdges(d *faultcurve.Domain, p faultcurve.Profile, f, z float64) (faulty, byz float64) {
	mc, mb := d.CrashMultiplier, d.ByzMultiplier
	pc, pb := p.PCrash*mc, p.PByz*mb
	if s := pc + pb; s > 1 {
		k := z / (s * s)
		return -mc * pb * k, (mc*pb + mb*pc) * k
	}
	return mc * f, (mb-mc)*f + mb*z
}
