package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"slices"

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
// would accept. It is Query.Fingerprint on a throwaway Query.
func FleetModelDomainsFingerprint(fleet Fleet, m CountModel, domains DomainSet) (Fingerprint, error) {
	var q Query
	if err := q.resolveValid(fleet, m, domains); err != nil {
		return Fingerprint{}, err
	}
	return q.Fingerprint(), nil
}

// fingerprintEncoder is a Query's key workspace, filled by Query.encode:
// buf holds fingerprintDomain, the model bits (to modelEnd) and the
// independent nodes' sorted bits (to indepEnd, 0 until encode has run
// since Resolve), past which Fingerprint appends its domain section;
// chunks holds every populated domain's chunk in position order,
// spans[pos] its [start, end), and sorted is Fingerprint's byte-ordered
// copy of spans. restKeyFor reads the same pieces. A reused encoder hashes
// without allocating.
type fingerprintEncoder struct {
	buf                []byte
	modelEnd, indepEnd int
	keys               profileKeys
	chunks             []byte
	spans, sorted      [][2]int
}

// encode writes the resolved query's key pieces at their first use after
// Resolve — a Fingerprint call or a domain-engine run — and returns them.
func (q *Query) encode() *fingerprintEncoder {
	e, l := &q.enc, &q.layout
	if e.indepEnd > 0 {
		return e
	}
	buf := slices.Grow(e.buf[:0], 128+16*len(q.Fleet)+56*len(q.Domains))
	buf = append(buf, fingerprintDomain...)
	buf = appendModelBits(buf, q.Model)
	e.modelEnd = len(buf)

	// Sorted (PCrash, PByz) bit pairs of the independent nodes:
	// permutation-invariant, exact. With no populated domains this is the
	// whole fleet and the encoding is identical to the domain-free one.
	// The domain-free case (the serving layer's hot sweep path) has no
	// index slice to walk: the resolver built none.
	buf = e.keys.appendSorted(buf, q.Fleet, l.indep, len(q.Domains) == 0)
	e.indepEnd = len(buf)

	// One chunk per populated domain: shock parameters followed by the
	// sorted member profile bits, in position order.
	e.chunks, e.spans = e.chunks[:0], e.spans[:0]
	if len(l.act) > 0 {
		e.chunks = slices.Grow(e.chunks, 40*len(l.act)+16*(len(q.Fleet)-len(l.indep)))
	}
	for _, di := range l.act {
		start := len(e.chunks)
		e.chunks = appendDomainChunk(e.chunks, &e.keys, q.Fleet, q.Domains[di], l.blocks[di])
		e.spans = append(e.spans, [2]int{start, len(e.chunks)})
	}
	e.buf = buf
	return e
}

// Fingerprint returns the canonical fingerprint of the resolved query,
// encoded in one contiguous buffer and hashed with a single Sum256 call:
// this sits on the serving layer's cache-miss path.
func (q *Query) Fingerprint() Fingerprint {
	e := q.encode()
	buf := e.buf[:e.indepEnd]

	// The domain chunks are sorted byte-wise before being appended, so the
	// fingerprint is invariant under domain renaming and reordering (which
	// cannot change the Result) while any change to a shock probability, a
	// multiplier, or a node's domain membership produces a different key.
	if len(e.spans) > 0 {
		e.sorted = append(e.sorted[:0], e.spans...)
		slices.SortFunc(e.sorted, func(a, b [2]int) int {
			return bytes.Compare(e.chunks[a[0]:a[1]], e.chunks[b[0]:b[1]])
		})
		buf = binary.BigEndian.AppendUint64(buf, uint64(len("domains")))
		buf = append(buf, "domains"...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.sorted)))
		for _, sp := range e.sorted {
			buf = binary.BigEndian.AppendUint64(buf, uint64(sp[1]-sp[0]))
			buf = append(buf, e.chunks[sp[0]:sp[1]]...)
		}
	}
	e.buf = buf
	return sha256.Sum256(buf)
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

// profileKeys is a reused buffer of (PCrash, PByz) bit pairs and the
// scratch they are sorted through: the profile encoding of the fingerprint
// and of the evaluator's rest-table keys.
type profileKeys struct {
	keys, tmp [][2]uint64
	count     []int32
}

// appendSorted appends the count and the sorted exact IEEE-754 (PCrash,
// PByz) bit pairs of the given fleet indices, or of the whole fleet when
// all is set (domain-free callers need no index slice).
func (k *profileKeys) appendSorted(buf []byte, fleet Fleet, idxs []int, all bool) []byte {
	n := len(idxs)
	if all {
		n = len(fleet)
	}
	keys := slices.Grow(k.keys[:0], n)
	if all {
		for _, node := range fleet {
			keys = append(keys, profileKey(node.Profile))
		}
	} else {
		for _, i := range idxs {
			keys = append(keys, profileKey(fleet[i].Profile))
		}
	}
	k.keys = keys
	keys = k.sort()
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, key := range keys {
		buf = binary.BigEndian.AppendUint64(buf, key[0])
		buf = binary.BigEndian.AppendUint64(buf, key[1])
	}
	return buf
}

const (
	// keySortRun is the most keys insertion sort takes on its own, and
	// the most one bucket of the bucket pass may hold.
	keySortRun = 16
	// keySortMaxBits caps the bucket pass at 4096 buckets.
	keySortMaxBits = 12
)

// sort sorts k.keys in (PCrash bits, PByz bits) order and returns them;
// the slice returned may be k.tmp, and the two buffers then trade places.
// Past keySortRun keys, one pass finds the least and greatest PCrash bits,
// lo and hi, and a second counts the keys into at least as many buckets as
// there are keys, by the leading bits of key - lo; the buckets follow in
// key order. The keys are scattered into k.tmp by bucket, and one
// insertion sort finishes each bucket. A crowded bucket (many equal crash
// probabilities, say) sends the whole slice to slices.SortFunc instead,
// which keeps any fleet at O(n log n). The order is the one total order on
// distinct pairs, so either path yields the same bytes.
//
// The buckets split [lo, hi] evenly, rather than by the bits that differ
// between keys: a fleet whose crash probabilities cross a power of two
// where the exponent's low bits carry (0.005–0.05 crosses 2^-5, 0111 to
// 1010) differs in a high bit that would leave most buckets empty.
func (k *profileKeys) sort() [][2]uint64 {
	keys := k.keys
	if len(keys) <= keySortRun {
		insertionSortKeys(keys)
		return keys
	}
	lo, hi := keys[0][0], keys[0][0]
	for _, key := range keys {
		lo, hi = min(lo, key[0]), max(hi, key[0])
	}
	width := min(bits.Len(uint(len(keys))), keySortMaxBits)
	shift := max(bits.Len64(hi-lo)-width, 0)
	count := slices.Grow(k.count[:0], 1<<width)[:1<<width]
	k.count = count
	clear(count)
	for _, key := range keys {
		count[(key[0]-lo)>>shift]++
	}
	pos := int32(0)
	for b, c := range count {
		if c > keySortRun {
			slices.SortFunc(keys, compareProfileKeys)
			return keys
		}
		count[b] = pos
		pos += c
	}
	tmp := slices.Grow(k.tmp[:0], len(keys))[:len(keys)]
	for _, key := range keys {
		b := (key[0] - lo) >> shift
		tmp[count[b]] = key
		count[b]++
	}
	insertionSortKeys(tmp)
	k.keys, k.tmp = tmp, keys
	return tmp
}

// insertionSortKeys sorts keys in compareProfileKeys order.
func insertionSortKeys(keys [][2]uint64) {
	for i := 1; i < len(keys); i++ {
		v, j := keys[i], i
		for ; j > 0 && lessProfileKey(v, keys[j-1]); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = v
	}
}

func lessProfileKey(a, b [2]uint64) bool {
	return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
}

func profileKey(p faultcurve.Profile) [2]uint64 {
	return [2]uint64{canonBits(p.PCrash), canonBits(p.PByz)}
}

func compareProfileKeys(a, b [2]uint64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// appendDomainBits appends a domain's shock probability and its crash and
// Byzantine multipliers as canonical bits — everything of a domain but its
// name and members. Shared by the query fingerprint and the evaluator's
// rest-table keys.
func appendDomainBits(buf []byte, d faultcurve.Domain) []byte {
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.ShockProb))
	buf = binary.BigEndian.AppendUint64(buf, canonBits(d.CrashMultiplier))
	return binary.BigEndian.AppendUint64(buf, canonBits(d.ByzMultiplier))
}

// appendDomainChunk appends one populated domain's chunk: its shock and
// multiplier bits, then the count and sorted profile bits of its members,
// idxs. The query fingerprint sorts these chunks; the evaluator's rest keys
// (restKeyFor) read them in position order.
func appendDomainChunk(buf []byte, keys *profileKeys, fleet Fleet, d faultcurve.Domain, idxs []int) []byte {
	return keys.appendSorted(appendDomainBits(buf, d), fleet, idxs, false)
}

// canonBits is math.Float64bits with the sign of zero dropped: -0 + 0 is
// +0 under round-to-nearest, and the addition changes no other value the
// validators admit.
func canonBits(v float64) uint64 { return math.Float64bits(v + 0) }
