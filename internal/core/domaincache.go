package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/obs"
)

// This file is the incremental correlated-domain engine: the per-domain
// block cache and leave-one-block-out rest tables that let an Evaluator
// answer a stream of related domain queries — shock sweeps, optimizer
// gradient probes, hardening line searches — without rebuilding the DPs a
// query did not change. See DESIGN.md "Correlated-domain block cache".
//
// Three layers, cheapest first:
//
//  1. Rest-table fast path. For a populated domain d, rest_d is the joint
//     distribution of every node OUTSIDE d. Summing the model's regions,
//     shifted by what d contributes, over rest_d once yields three
//     (k_d+1)^2 tables (safe/live/both)[cd][bd] = P[predicate | d
//     contributes (cd, bd)].
//     Any later query that differs from the cached layout ONLY inside d —
//     its shock probability, its multipliers, its members' profiles — is
//     answered by mixing d's two block DPs and taking an O(k_d^2) dot
//     product against the tables. Zero joint builds for a pure shock
//     change; two k_d-sized block builds for a member change.
//  2. Block cache. Per-domain base and elevated (and the independent
//     remainder's) joint DPs, keyed by the exact IEEE-754 bits of the
//     member profiles (and shock multipliers for elevated blocks). A full
//     recombination convolves cached blocks instead of rebuilding them.
//  3. Full path. Cache-missing blocks are built from scratch (counted by
//     dist.JointBuilds), the prefix/suffix convolution chains produce the
//     query answer AND every domain's rest table, so the next related
//     query takes path 1.
//
// Keying rules (the correctness contract):
//
//   - Block keys hash the sorted member (PCrash, PByz) bit pairs — block
//     DPs are permutation-invariant — plus the crash/byz multiplier bits
//     for elevated blocks. Shock probability is NOT part of a block key:
//     shocks enter only through mixture weights.
//   - Rest keys for domain d hash the model parameters, d's member count,
//     the independent nodes' profile bits, and every OTHER populated
//     domain's (shock, multipliers, member profile bits) — everything the
//     rest tables depend on and nothing about d itself beyond its size, so
//     perturbing d never invalidates rest_d.
//   - Every float goes in as canonBits, the query fingerprint's encoder:
//     exact IEEE-754 bits with -0 folded onto +0 (the same probability, the
//     same tables), so a "-0" shock or multiplier is a hit, not a rebuild.
//
// All workspaces live on the owning Evaluator: no locks, no sharing, zero
// steady-state allocations on the cached paths (pinned by
// TestAnalyzeDomainsZeroAllocs).

// blockKeyDomain versions the cache-key encoding, separate from the query
// fingerprint domain so the two key spaces can never collide.
const blockKeyDomain = "probcons-block-v1"

// Cache caps: simple clear-on-overflow bounds. A sweep or optimizer run
// touches a handful of layouts; the caps only guard against adversarial
// query streams growing the maps without bound.
const (
	maxBlockCacheEntries  = 1024
	maxRestCacheEntries   = 256
	maxResultCacheEntries = 4096
)

type blockKey = [sha256.Size]byte

// Domain-cache traffic, process-wide: /metrics aggregates block reuse
// across the whole evaluator pool, and the package's tests prove reuse by
// diffing these around a query stream (the companion of dist.JointBuilds).
var (
	domBlockHits = obs.Default().Counter("probcons_engine_block_cache_hits_total",
		"Per-domain block-DP cache hits (base/elevated/independent blocks).", nil)
	domBlockMisses = obs.Default().Counter("probcons_engine_block_cache_misses_total",
		"Per-domain block-DP cache misses (each one from-scratch dist build).", nil)
	domRestHits = obs.Default().Counter("probcons_engine_rest_table_hits_total",
		"Correlated queries answered by the leave-one-block-out O(k^2) fast path.", nil)
	domRestMisses = obs.Default().Counter("probcons_engine_rest_table_misses_total",
		"Correlated queries that ran a full block recombination.", nil)
	domResultHits = obs.Default().Counter("probcons_engine_result_memo_hits_total",
		"Exact-repeat correlated queries answered from the evaluator result memo.", nil)
)

// restTables is the leave-one-block-out summary for one populated domain:
// the model's regions summed over the joint distribution of every node
// outside the domain. Entry [cd*(k+1)+bd] is the probability the
// predicate holds given the domain contributes exactly (cd, bd) faults.
type restTables struct {
	k                int
	safe, live, both []float64
}

// domainState is the Evaluator's correlated-domain workspace: the resolved
// layout of the query in flight, cache maps, and the DP workspaces of the
// recombination chains.
type domainState struct {
	domainLayout

	keyBuf   []byte
	restKeys []blockKey
	tri      []dist.TriState

	blockCache  map[blockKey]*dist.JointCrashByz
	restCache   map[blockKey]*restTables
	resultCache map[blockKey]Result

	// Recombination workspaces: mixed[j] is domain j's shock-weighted
	// block, prefix[j] the running convolution through domain j, suffix[j]
	// the convolution of domains j..D-1; rest holds one leave-one-out
	// product. Pointer slices let chain entries alias cached tables.
	mixed     []dist.JointCrashByz
	prefix    []dist.JointCrashByz
	suffix    []dist.JointCrashByz
	rest      dist.JointCrashByz
	fastMix   dist.JointCrashByz
	prefixPtr []*dist.JointCrashByz
	suffixPtr []*dist.JointCrashByz
}

func (ds *domainState) maybeEvict() {
	if len(ds.blockCache) > maxBlockCacheEntries {
		clear(ds.blockCache)
	}
	if len(ds.restCache) > maxRestCacheEntries {
		clear(ds.restCache)
	}
	if len(ds.resultCache) > maxResultCacheEntries {
		clear(ds.resultCache)
	}
}

// baseKey identifies a block DP of the given nodes at their base profiles.
func (ds *domainState) baseKey(fleet Fleet, idxs []int) blockKey {
	buf := append(ds.keyBuf[:0], blockKeyDomain...)
	buf = append(buf, 'B')
	buf = appendSortedProfileBits(buf, fleet, idxs, false)
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// elevKey identifies a block DP of the given nodes under a domain's shock
// multipliers. The shock probability is deliberately absent: it scales the
// mixture weights, never the elevated table.
func (ds *domainState) elevKey(fleet Fleet, idxs []int, d *faultcurve.Domain) blockKey {
	buf := append(ds.keyBuf[:0], blockKeyDomain...)
	buf = append(buf, 'E')
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.CrashMultiplier))
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.ByzMultiplier))
	buf = appendSortedProfileBits(buf, fleet, idxs, false)
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// restKeyFor identifies the rest tables of the populated domain at
// position pos of ds.act: model bits, the domain's member count, and the
// full parameterisation of everything OUTSIDE the domain.
func (ds *domainState) restKeyFor(fleet Fleet, m CountModel, domains DomainSet, pos int) blockKey {
	buf := append(ds.keyBuf[:0], blockKeyDomain...)
	buf = append(buf, 'R')
	buf = appendModelBits(buf, m)
	di := ds.act[pos]
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(ds.blocks[di])))
	buf = append(buf, 'I')
	buf = appendSortedProfileBits(buf, fleet, ds.indep, false)
	for _, dj := range ds.act {
		if dj == di {
			continue
		}
		buf = appendDomainBits(buf, domains[dj])
		buf = appendSortedProfileBits(buf, fleet, ds.blocks[dj], false)
	}
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// resultKey identifies the complete mixture query — model, independent
// profiles, and every populated domain's full parameterisation — for the
// result memo. An exact repeat must return a bit-identical Result
// regardless of what the block/rest caches have absorbed in between, so
// repeats short-circuit before any cache-state-dependent arithmetic runs.
func (ds *domainState) resultKey(fleet Fleet, m CountModel, domains DomainSet) blockKey {
	buf := append(ds.keyBuf[:0], blockKeyDomain...)
	buf = append(buf, 'Q')
	buf = appendModelBits(buf, m)
	buf = append(buf, 'I')
	buf = appendSortedProfileBits(buf, fleet, ds.indep, false)
	for _, dj := range ds.act {
		buf = appendDomainBits(buf, domains[dj])
		buf = appendSortedProfileBits(buf, fleet, ds.blocks[dj], false)
	}
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// blockFor returns the joint DP of the given nodes — at base profiles when
// elevate is nil, else shock-elevated — from the block cache, building and
// caching it on a miss. Cached tables are immutable once inserted.
func (ds *domainState) blockFor(fleet Fleet, idxs []int, elevate *faultcurve.Domain) *dist.JointCrashByz {
	var key blockKey
	if elevate == nil {
		key = ds.baseKey(fleet, idxs)
	} else {
		key = ds.elevKey(fleet, idxs, elevate)
	}
	if ds.blockCache == nil {
		ds.blockCache = make(map[blockKey]*dist.JointCrashByz)
	}
	if j, ok := ds.blockCache[key]; ok && j.N() == len(idxs) {
		domBlockHits.Inc()
		return j
	}
	domBlockMisses.Inc()
	ds.tri = ds.tri[:0]
	for _, i := range idxs {
		p := fleet[i].Profile
		if elevate != nil {
			p = elevate.Elevate(p)
		}
		ds.tri = append(ds.tri, p.TriState())
	}
	j := dist.NewJointCrashByz(ds.tri)
	ds.blockCache[key] = j
	return j
}

// mixedInto writes domain pos's shock-weighted block into dst from cached
// (or freshly built) base and elevated blocks.
func (ds *domainState) mixedInto(dst *dist.JointCrashByz, fleet Fleet, domains DomainSet, di int) error {
	d := domains[di]
	idxs := ds.blocks[di]
	base := ds.blockFor(fleet, idxs, nil)
	elev := ds.blockFor(fleet, idxs, &d)
	s := dist.Clamp01(d.ShockProb)
	return dist.MixJointCrashByzInto(dst, base, elev, 1-s, s)
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

// populate sums the model's regions — safe, live and both — over the rest
// distribution: entry (cd, bd) is the rest mass under which a region holds
// when the domain contributes (cd, bd) faults. A rest outcome (c, b) lands
// the fleet on (c + cd, b + bd), inside {b <= β, c + b <= κ} exactly when
// (c, b) is inside the shifted region {b <= β − bd, c + b <= κ − cd − bd},
// so each entry is one compensated dist.RegionSum and the fast-path answer
// matches a full recombination to ~1e-15.
func (rt *restTables) populate(rest *dist.JointCrashByz, k int, safe, live, both dist.Region) {
	w := k + 1
	rt.k = k
	rt.safe = grow(rt.safe, w*w)
	rt.live = grow(rt.live, w*w)
	rt.both = grow(rt.both, w*w)
	shift := func(r dist.Region, cd, bd int) dist.Region {
		return dist.Region{Byz: r.Byz - bd, Faulty: r.Faulty - cd - bd}
	}
	for cd := 0; cd <= k; cd++ {
		for bd := 0; bd <= k; bd++ {
			i := cd*w + bd
			if cd+bd > k {
				rt.safe[i], rt.live[i], rt.both[i] = 0, 0, 0
				continue
			}
			rt.safe[i] = rest.RegionSum(shift(safe, cd, bd))
			rt.live[i] = rest.RegionSum(shift(live, cd, bd))
			rt.both[i] = rest.RegionSum(shift(both, cd, bd))
		}
	}
}

// dot answers a query from one domain's mixed block and its rest tables:
// Result = Σ_{cd,bd} P[block = (cd, bd)] · P[predicate | (cd, bd)].
func (rt *restTables) dot(mixed *dist.JointCrashByz) Result {
	k := rt.k
	w := k + 1
	var sS, sL, sB dist.KahanSum
	for cd := 0; cd <= k; cd++ {
		for bd := 0; cd+bd <= k; bd++ {
			mass := mixed.PMF(cd, bd)
			if mass == 0 {
				continue
			}
			i := cd*w + bd
			sS.Add(mass * rt.safe[i])
			sL.Add(mass * rt.live[i])
			sB.Add(mass * rt.both[i])
		}
	}
	return Result{
		Safe:        dist.Clamp01(sS.Sum()),
		Live:        dist.Clamp01(sL.Sum()),
		SafeAndLive: dist.Clamp01(sB.Sum()),
	}
}

// analyzeDomainsMixture is the evaluator's cached mixture engine. The
// caller has resolved the query into ds; ds.act is non-empty. The full
// (cache-cold) path performs exactly the package AnalyzeDomainsMixture's
// operations in the same order — identical results — and additionally
// populates every domain's rest tables from the prefix/suffix chains so
// related follow-up queries take the fast path.
func (e *Evaluator) analyzeDomainsMixture(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	ds := &e.dom
	ds.maybeEvict()
	if ds.restCache == nil {
		ds.restCache = make(map[blockKey]*restTables)
	}
	if ds.resultCache == nil {
		ds.resultCache = make(map[blockKey]Result)
	}
	D := len(ds.act)

	// Exact repeats return the memoized Result before any cache-state-
	// dependent arithmetic: equal queries answer bit-identically whether
	// the caches were cold or warm (the query-fingerprint determinism
	// contract the serving layer's caches rely on).
	qkey := ds.resultKey(fleet, m, domains)
	if r, ok := ds.resultCache[qkey]; ok {
		domResultHits.Inc()
		return r, nil
	}

	// Fast path: the first populated domain whose rest tables survive from
	// an earlier query answers in O(k^2) after at most two block builds.
	ds.restKeys = ds.restKeys[:0]
	for pos, di := range ds.act {
		key := ds.restKeyFor(fleet, m, domains, pos)
		ds.restKeys = append(ds.restKeys, key)
		rt, ok := ds.restCache[key]
		if !ok || rt.k != len(ds.blocks[di]) {
			continue
		}
		if err := ds.mixedInto(&ds.fastMix, fleet, domains, di); err != nil {
			return Result{}, err
		}
		domRestHits.Inc()
		r := rt.dot(&ds.fastMix)
		ds.resultCache[qkey] = r
		return r, nil
	}
	domRestMisses.Inc()

	// Full path: recombine cached/rebuilt blocks. Grow chain workspaces
	// before taking pointers into them.
	ds.mixed = grow(ds.mixed, D)
	ds.prefix = grow(ds.prefix, D)
	ds.suffix = grow(ds.suffix, D)
	ds.prefixPtr = ds.prefixPtr[:0]
	ds.suffixPtr = ds.suffixPtr[:0]

	// prefixPtr[j] is the joint of the independent remainder plus domains
	// 0..j-1; the query answer is prefixPtr[D]'s predicate sums.
	ds.prefixPtr = append(ds.prefixPtr, ds.blockFor(fleet, ds.indep, nil))
	for pos, di := range ds.act {
		if err := ds.mixedInto(&ds.mixed[pos], fleet, domains, di); err != nil {
			return Result{}, err
		}
		dist.ConvolveJointCrashByzInto(&ds.prefix[pos], ds.prefixPtr[pos], &ds.mixed[pos])
		ds.prefixPtr = append(ds.prefixPtr, &ds.prefix[pos])
	}
	result := resultFromJointModel(ds.prefixPtr[D], m)

	// Rest tables for every domain via the suffix chain: suffixPtr[j] is
	// the joint of domains j..D-1, so rest_pos = prefix[pos] ⊛
	// suffix[pos+1] (for the last domain, just prefix[D-1]).
	ds.suffixPtr = grow(ds.suffixPtr, D)
	ds.suffixPtr[D-1] = &ds.mixed[D-1]
	for pos := D - 2; pos >= 0; pos-- {
		dist.ConvolveJointCrashByzInto(&ds.suffix[pos], &ds.mixed[pos], ds.suffixPtr[pos+1])
		ds.suffixPtr[pos] = &ds.suffix[pos]
	}
	safe, live := m.Regions()
	both := safe.Intersect(live)
	for pos, di := range ds.act {
		restJ := ds.prefixPtr[pos]
		if pos < D-1 {
			dist.ConvolveJointCrashByzInto(&ds.rest, ds.prefixPtr[pos], ds.suffixPtr[pos+1])
			restJ = &ds.rest
		}
		rt := ds.restCache[ds.restKeys[pos]]
		if rt == nil {
			rt = &restTables{}
		}
		rt.populate(restJ, len(ds.blocks[di]), safe, live, both)
		ds.restCache[ds.restKeys[pos]] = rt
	}
	ds.resultCache[qkey] = result
	return result, nil
}

// analyzeDomainsConditioned is the 2^D engine (AnalyzeDomainsConditioned
// documents the arithmetic), run through the evaluator's tri-state and
// joint workspaces so a warm evaluator conditions without allocating. It
// reads the resolved layout and none of the caches. The 2^D per-mask
// rebuilds run one after another: dist.Reset is a serial banded fold.
func (e *Evaluator) analyzeDomainsConditioned(fleet Fleet, m CountModel, domains DomainSet) (Result, error) {
	ds := &e.dom
	d := len(ds.act)
	if d > maxConditionedDomains {
		return Result{}, fmt.Errorf("core: %d populated domains exceed the 2^D engine's maximum %d (use AnalyzeDomainsMixture)", d, maxConditionedDomains)
	}
	var sSafe, sLive, sBoth dist.KahanSum
	for mask := 0; mask < 1<<d; mask++ {
		weight := 1.0
		for bit, di := range ds.act {
			s := dist.Clamp01(domains[di].ShockProb)
			if mask&(1<<bit) != 0 {
				weight *= s
			} else {
				weight *= 1 - s
			}
		}
		if weight == 0 {
			continue
		}
		e.tri = e.tri[:0]
		for _, n := range fleet {
			e.tri = append(e.tri, n.Profile.TriState())
		}
		for bit, di := range ds.act {
			if mask&(1<<bit) == 0 {
				continue
			}
			for _, i := range ds.blocks[di] {
				e.tri[i] = domains[di].Elevate(fleet[i].Profile).TriState()
			}
		}
		e.joint.Reset(e.tri)
		cond := resultFromJointModel(&e.joint, m)
		sSafe.Add(weight * cond.Safe)
		sLive.Add(weight * cond.Live)
		sBoth.Add(weight * cond.SafeAndLive)
	}
	return Result{
		Safe:        dist.Clamp01(sSafe.Sum()),
		Live:        dist.Clamp01(sLive.Sum()),
		SafeAndLive: dist.Clamp01(sBoth.Sum()),
	}, nil
}
