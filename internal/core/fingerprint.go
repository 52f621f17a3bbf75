package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/faultcurve"
)

// This file defines the canonical fingerprint of an analysis query
// (fleet, model): the cache key of the serving layer (internal/qcache,
// internal/service). Analyze is pure and deterministic, so two queries
// with equal fingerprints have bit-identical Results.
//
// Canonicalisation rules:
//
//   - Per-node profiles are encoded as the exact IEEE-754 bits of
//     (PCrash, PByz) — quantization-free: 0.01 and 0.01+1e-17 are
//     different keys, never silently merged. The one exception is the
//     sign of zero: -0 (which JSON can spell and validation accepts) is
//     the same probability as 0 and is encoded as +0, here and for the
//     shock and multiplier bits below.
//   - Profiles are sorted before hashing. A CountModel's predicates see
//     only fault *counts*, so the joint (#crashed, #Byzantine)
//     distribution — and therefore the Result — is invariant under node
//     permutation; sorting makes the fingerprint share that invariance.
//   - Node names and costs are excluded: they do not influence Result.
//   - The model contributes its protocol tag and every quorum parameter.
//     Unknown CountModel implementations fall back to N() + Name(), which
//     is correct as long as Name() encodes all parameters (true of every
//     model in this repo).
//   - Failure domains are encoded per populated domain as (shock bits,
//     multiplier bits, sorted member-profile bits), with the per-domain
//     chunks themselves sorted — so domain names, domain order, and node
//     order within a domain never fragment the cache, but any change to
//     which domain a node belongs to, to a shock probability, or to a
//     multiplier yields a different key. A query with no populated
//     domains encodes identically to the domain-free query: the Results
//     are equal, so aliasing them is correct (and a free cache hit).
//   - A hash-domain/version prefix keeps fingerprints from colliding with
//     other hash uses and lets the encoding evolve.

// Fingerprint is a canonical, collision-resistant identity of an
// (analysis query → Result) pair.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex, the form used as a
// cache key and surfaced in service responses. It encodes through a stack
// buffer so the cache-key path pays exactly one allocation.
func (f Fingerprint) String() string {
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], f[:])
	return string(dst[:])
}

const fingerprintDomain = "probcons-query-v1"

// FleetModelDomainsFingerprint computes the canonical fingerprint of
// analysing fleet under m with the given failure-domain layout — the cache
// key of AnalyzeDomains queries. It validates the fleet and the domain
// layout so a fingerprint is only ever issued for a query the engines
// would accept. The encoding is built in one contiguous buffer and hashed
// with a single Sum256 call: this sits on the serving layer's cache-miss
// path.
func FleetModelDomainsFingerprint(fleet Fleet, m CountModel, domains DomainSet) (Fingerprint, error) {
	var l domainLayout
	if err := l.resolveQuery(fleet, m, domains); err != nil {
		return Fingerprint{}, err
	}
	buf := make([]byte, 0, 128+16*len(fleet)+56*len(domains))
	buf = append(buf, fingerprintDomain...)

	buf = appendModelBits(buf, m)

	appendU64 := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	appendStr := func(s string) {
		appendU64(uint64(len(s)))
		buf = append(buf, s...)
	}

	// Sorted (PCrash, PByz) bit pairs of the independent nodes:
	// permutation-invariant, exact. With no populated domains this is the
	// whole fleet and the encoding is identical to the domain-free one.
	// The domain-free case (the serving layer's hot sweep path) has no
	// index slices to walk: the resolver built none.
	if len(domains) == 0 {
		buf = appendSortedProfileBits(buf, fleet, nil, true)
	} else {
		buf = appendSortedProfileBits(buf, fleet, l.indep, false)
	}

	// One chunk per populated domain: shock parameters followed by the
	// sorted member profile bits. Chunks are sorted byte-wise before being
	// appended, so the fingerprint is invariant under domain renaming and
	// reordering (which cannot change the Result) while any change to a
	// shock probability, a multiplier, or a node's domain membership
	// produces a different key.
	var chunks [][]byte
	for _, di := range l.act {
		chunk := appendDomainBits(nil, domains[di])
		chunk = appendSortedProfileBits(chunk, fleet, l.blocks[di], false)
		chunks = append(chunks, chunk)
	}
	if len(chunks) > 0 {
		sort.Slice(chunks, func(i, j int) bool { return bytes.Compare(chunks[i], chunks[j]) < 0 })
		appendStr("domains")
		appendU64(uint64(len(chunks)))
		for _, c := range chunks {
			appendU64(uint64(len(c)))
			buf = append(buf, c...)
		}
	}
	return sha256.Sum256(buf), nil
}

// appendModelBits appends the canonical encoding of a CountModel — its
// protocol tag plus every quorum parameter. Shared by the query
// fingerprint and the evaluator's rest-table cache keys, so the two can
// never disagree about what identifies a model.
func appendModelBits(buf []byte, m CountModel) []byte {
	appendU64 := func(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
	appendStr := func(b []byte, s string) []byte {
		b = appendU64(b, uint64(len(s)))
		return append(b, s...)
	}
	switch mm := m.(type) {
	case Raft:
		buf = appendStr(buf, "raft")
		buf = appendU64(buf, uint64(mm.NNodes))
		buf = appendU64(buf, uint64(mm.QPer))
		buf = appendU64(buf, uint64(mm.QVC))
	case PBFT:
		buf = appendStr(buf, "pbft")
		buf = appendU64(buf, uint64(mm.NNodes))
		buf = appendU64(buf, uint64(mm.QEq))
		buf = appendU64(buf, uint64(mm.QPer))
		buf = appendU64(buf, uint64(mm.QVC))
		buf = appendU64(buf, uint64(mm.QVCT))
	default:
		buf = appendStr(buf, "model")
		buf = appendU64(buf, uint64(m.N()))
		buf = appendStr(buf, m.Name())
	}
	return buf
}

// appendSortedProfileBits appends the count and the sorted exact IEEE-754
// (PCrash, PByz) bit pairs of the given fleet indices (the whole fleet
// when all is set, so domain-free callers need no index slice).
func appendSortedProfileBits(buf []byte, fleet Fleet, idxs []int, all bool) []byte {
	n := len(idxs)
	if all {
		n = len(fleet)
	}
	// Fleets up to typical serving sizes sort in a stack buffer with an
	// allocation-free insertion sort (the keys are few and often
	// pre-sorted — uniform fleets are constant); larger fleets take the
	// allocating sort.Slice path.
	if n <= 64 {
		var arr [64][2]uint64
		keys := arr[:n]
		fillProfileKeys(keys, fleet, idxs, all)
		insertionSortProfileKeys(keys)
		return appendProfileKeys(buf, keys)
	}
	keys := make([][2]uint64, n)
	fillProfileKeys(keys, fleet, idxs, all)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return appendProfileKeys(buf, keys)
}

func fillProfileKeys(keys [][2]uint64, fleet Fleet, idxs []int, all bool) {
	for j := range keys {
		i := j
		if !all {
			i = idxs[j]
		}
		p := fleet[i].Profile
		keys[j] = [2]uint64{canonBits(p.PCrash), canonBits(p.PByz)}
	}
}

// appendDomainBits appends a domain's shock probability and its crash and
// Byzantine multipliers as canonical bits — everything of a domain but its
// name and members. Shared by the query fingerprint and the evaluator's
// rest-table and result keys.
func appendDomainBits(buf []byte, d faultcurve.Domain) []byte {
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.ShockProb))
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.CrashMultiplier))
	return binary.BigEndian.AppendUint64(buf, canonBits(d.ByzMultiplier))
}

// canonBits is math.Float64bits with the sign of zero dropped: -0 + 0 is
// +0 under round-to-nearest, and the addition changes no other value the
// validators admit.
func canonBits(v float64) uint64 { return math.Float64bits(v + 0) }

func insertionSortProfileKeys(keys [][2]uint64) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && (keys[j][0] > k[0] || (keys[j][0] == k[0] && keys[j][1] > k[1])) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

func appendProfileKeys(buf []byte, keys [][2]uint64) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint64(buf, k[0])
		buf = binary.BigEndian.AppendUint64(buf, k[1])
	}
	return buf
}
