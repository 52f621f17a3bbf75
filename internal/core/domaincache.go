package core

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/obs"
)

// This file is the correlated-domain engine: the one exact engine every
// populated domain layout runs on, with the leave-one-block-out rest tables
// that let an Evaluator answer a stream of related domain queries — shock
// sweeps, optimizer gradient probes, hardening line searches — without
// recombining the tables a query did not change. See DESIGN.md
// "Correlated-domain rest tables".
//
// Every table is a dist.RegionPass: a node group's count distribution
// truncated to the model's safe, live and safe-and-live regions and laid
// out for the whole fleet (DESIGN.md "Count regions"). For Raft and
// textbook PBFT each region is a one-dimensional row, so a block of k
// nodes folds in O(k·κ), a mixture is element-wise, a convolution costs
// O(k·κ) per block and a rest table is one cumulative row.
//
// Two paths:
//
//  1. Rest-table fast path. For a populated domain d, rest_d is the table
//     of every node OUTSIDE d; its Shifted tables hold, per cell x a block
//     can land on, P[rest + x ∈ region]. A query that differs from a
//     cached layout ONLY inside d — its shock probability, its
//     multipliers, its members' profiles — folds d's base and elevated
//     blocks (two k_d-node folds), mixes them, and takes one dot product
//     per region over d's cells. The search runs from the first populated
//     domain.
//  2. Full path. Every block is folded, and the prefix/suffix convolution
//     chains produce every domain's rest tables, so the next related query
//     takes path 1. The answer is then read exactly as path 1 reads it for
//     the first populated domain, from the same tables, so an exact repeat
//     answers == the cold answer on an evaluator however warm.
//
// Blocks are folded into evaluator-owned scratch on every query; only rest
// tables are cached. A rest key for the domain at position pos hashes the
// model parameters, pos, d's member count, the independent nodes' profile
// bits and every OTHER populated domain's (shock, multipliers, member
// profile bits) in order — everything the rest's convolution chain reads,
// and nothing about d itself beyond its size, so perturbing d never
// invalidates rest_d. Every float goes in as canonBits, the query
// fingerprint's encoder: exact IEEE-754 bits with -0 folded onto +0 (the
// same probability, the same tables), so a "-0" shock or multiplier is a
// hit, not a recombination.
//
// All workspaces live on the owning Evaluator: no locks, no sharing, zero
// steady-state allocations on the fast path (pinned by
// TestAnalyzeDomainsZeroAllocs).

// restKeyDomain versions the rest-key encoding, separate from the query
// fingerprint domain so the two key spaces can never collide.
const restKeyDomain = "probcons-rest-v1"

// maxRestCacheEntries is a clear-on-overflow bound. A sweep or optimizer
// run touches a handful of layouts; the cap only guards against adversarial
// query streams growing the map without bound.
const maxRestCacheEntries = 256

type restKey = [sha256.Size]byte

// Rest-table traffic, process-wide: /metrics aggregates it across the whole
// evaluator pool, and the package's tests prove reuse by diffing these
// around a query stream (the companion of dist.JointBuilds).
var (
	domRestHits = obs.Default().Counter("probcons_engine_rest_table_hits_total",
		"Correlated queries answered by the leave-one-block-out fast path (one dot product over a block's cells).", nil)
	domRestMisses = obs.Default().Counter("probcons_engine_rest_table_misses_total",
		"Correlated queries that ran a full block recombination.", nil)
)

// The block cache and the result memo are deleted, so these families are
// constantly 0. The frozen benchmark scrapes them and fails on a missing
// sample, so they stay registered.
var (
	_ = obs.Default().Counter("probcons_engine_block_cache_hits_total",
		"Retired (blocks are folded per query; constantly 0); kept until the benchmark manifest drops core.block_cache_hit_share.", nil)
	_ = obs.Default().Counter("probcons_engine_block_cache_misses_total",
		"Retired (blocks are folded per query; constantly 0); kept until the benchmark manifest drops core.block_cache_hit_share.", nil)
	_ = obs.Default().Counter("probcons_engine_result_memo_hits_total",
		"Retired (a full recombination answers as the fast path does; constantly 0); kept until the benchmark manifest drops core.result_memo_hits_per_req.", nil)
)

// domainState is the Evaluator's correlated-domain workspace: the
// rest-table cache and the tables of the recombination chains. The
// query's resolved layout comes in with each call.
type domainState struct {
	regions  [3]dist.Region // the query model's safe, live, safe-and-live
	keyBuf   []byte
	keys     profileKeys
	restKeys []restKey
	tri      []dist.TriState

	restCache map[restKey]*dist.RegionPass // a rest's Shifted tables

	// Scratch blocks, refolded per query: a domain's base and elevated
	// tables, and the independent remainder's.
	base, elev, remainder dist.RegionPass

	// Recombination workspaces: mixed[j] is domain j's shock-weighted
	// block, prefix[j] the convolution of the remainder and domains 0..j,
	// suffix[j] the convolution of domains j..D-1; rest holds one
	// leave-one-out product. Pointer slices let chain entries alias the
	// remainder and the mixed blocks.
	mixed     []dist.RegionPass
	prefix    []dist.RegionPass
	suffix    []dist.RegionPass
	rest      dist.RegionPass
	prefixPtr []*dist.RegionPass
	suffixPtr []*dist.RegionPass
}

func (ds *domainState) maybeEvict() {
	if len(ds.restCache) > maxRestCacheEntries {
		clear(ds.restCache)
	}
}

// restKeyFor identifies the rest tables of the populated domain at
// position pos of l.act: model bits, pos, the domain's member count, and
// the full parameterisation of everything OUTSIDE the domain.
func (ds *domainState) restKeyFor(fleet Fleet, m CountModel, domains DomainSet, l *domainLayout, pos int) restKey {
	buf := append(ds.keyBuf[:0], restKeyDomain...)
	buf = appendModelBits(buf, m)
	di := l.act[pos]
	buf = binary.BigEndian.AppendUint64(buf, uint64(pos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(l.blocks[di])))
	buf = append(buf, 'I')
	buf = ds.keys.appendSorted(buf, fleet, l.indep, false)
	for _, dj := range l.act {
		if dj == di {
			continue
		}
		buf = appendDomainBits(buf, domains[dj])
		buf = ds.keys.appendSorted(buf, fleet, l.blocks[dj], false)
	}
	ds.keyBuf = buf
	return sha256.Sum256(buf)
}

// fold folds the given nodes — at their base profiles when elevate is nil,
// else shock-elevated — into dst: one from-scratch region fold.
func (ds *domainState) fold(dst *dist.RegionPass, fleet Fleet, idxs []int, elevate *faultcurve.Domain) {
	ds.tri = ds.tri[:0]
	for _, i := range idxs {
		p := fleet[i].Profile
		if elevate != nil {
			p = elevate.Elevate(p)
		}
		ds.tri = append(ds.tri, p.TriState())
	}
	dst.ResetGroup(ds.tri, ds.regions, len(fleet))
}

// mixedInto writes the shock-weighted block of domain di, whose members
// are idxs, into dst, folding its base and elevated blocks into the
// scratch.
func (ds *domainState) mixedInto(dst *dist.RegionPass, fleet Fleet, domains DomainSet, di int, idxs []int) {
	d := &domains[di]
	ds.fold(&ds.base, fleet, idxs, nil)
	ds.fold(&ds.elev, fleet, idxs, d)
	s := dist.Clamp01(d.ShockProb)
	dst.Mix(&ds.base, &ds.elev, 1-s, s)
}

// dotResult reads the three region masses of a block joined with a rest,
// given the block's tables and the rest's Shifted tables.
func dotResult(block, shifted *dist.RegionPass) Result {
	return Result{Safe: block.Dot(shifted, 0), Live: block.Dot(shifted, 1), SafeAndLive: block.Dot(shifted, 2)}
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

// analyzeDomains is the evaluator's domain engine over the query's
// resolved layout l, whose act is non-empty; the evaluator reads l only
// for the duration of the call. A query whose first populated domain's
// rest tables are cached answers == a cold recombination of it; one
// answered from a later domain's rest tables agrees with it to ~1e-15.
func (e *Evaluator) analyzeDomains(fleet Fleet, m CountModel, domains DomainSet, l *domainLayout) Result {
	ds := &e.dom
	ds.maybeEvict()
	if ds.restCache == nil {
		ds.restCache = make(map[restKey]*dist.RegionPass)
	}
	ds.regions = modelRegions(m)
	D := len(l.act)
	ds.mixed = grow(ds.mixed, D)

	// Fast path: the first populated domain whose rest tables survive from
	// an earlier query answers with one dot product per region after two
	// block folds.
	ds.restKeys = ds.restKeys[:0]
	for pos, di := range l.act {
		key := ds.restKeyFor(fleet, m, domains, l, pos)
		ds.restKeys = append(ds.restKeys, key)
		if shifted, ok := ds.restCache[key]; ok {
			domRestHits.Inc()
			ds.mixedInto(&ds.mixed[pos], fleet, domains, di, l.blocks[di])
			return dotResult(&ds.mixed[pos], shifted)
		}
	}
	domRestMisses.Inc()

	// Full path: prefixPtr[j] is the independent remainder plus domains
	// 0..j-1 and suffixPtr[j] domains j..D-1, so rest_j = prefixPtr[j] ⊛
	// suffixPtr[j+1] (for the last domain, just prefixPtr[D-1]). Neither the
	// full product nor suffix[0] is read, so neither is computed. Grow the
	// chain workspaces before taking pointers into them.
	ds.prefix = grow(ds.prefix, D)
	ds.suffix = grow(ds.suffix, D)
	ds.suffixPtr = grow(ds.suffixPtr, D)
	ds.fold(&ds.remainder, fleet, l.indep, nil)
	ds.prefixPtr = append(ds.prefixPtr[:0], &ds.remainder)
	for pos, di := range l.act {
		ds.mixedInto(&ds.mixed[pos], fleet, domains, di, l.blocks[di])
		if pos < D-1 {
			ds.prefix[pos].Convolve(ds.prefixPtr[pos], &ds.mixed[pos])
			ds.prefixPtr = append(ds.prefixPtr, &ds.prefix[pos])
		}
	}
	ds.suffixPtr[D-1] = &ds.mixed[D-1]
	for pos := D - 2; pos > 0; pos-- {
		ds.suffix[pos].Convolve(&ds.mixed[pos], ds.suffixPtr[pos+1])
		ds.suffixPtr[pos] = &ds.suffix[pos]
	}
	for pos := range l.act {
		rest := ds.prefixPtr[pos]
		if pos < D-1 {
			ds.rest.Convolve(rest, ds.suffixPtr[pos+1])
			rest = &ds.rest
		}
		// Every key missed above, so each rest gets a fresh table.
		shifted := &dist.RegionPass{}
		shifted.Shifted(rest)
		ds.restCache[ds.restKeys[pos]] = shifted
	}

	// Answer as the fast path answers for the first domain: a repeat reads
	// these same tables in the same order.
	return dotResult(&ds.mixed[0], ds.restCache[ds.restKeys[0]])
}
