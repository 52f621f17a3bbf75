package quorum

import "fmt"

// System is a quorum system over N nodes: a predicate deciding which node
// sets are quorums. Consensus steps (§3.1) each use one System: Q_eq,
// Q_per, Q_vc, Q_vc_t.
type System interface {
	// N returns the number of nodes.
	N() int
	// IsQuorum reports whether s is a quorum. s must be over the same N.
	IsQuorum(s Set) bool
	// MinSize returns the size of the smallest quorum.
	MinSize() int
	// String describes the system.
	String() string
}

// Threshold is the size-based quorum system: every set of at least K nodes
// is a quorum. It models the fixed quorum-size columns of Tables 1 and 2.
type Threshold struct {
	Nodes int
	K     int
}

// Majority returns the classic majority system over n nodes
// (K = floor(n/2)+1), as used by Raft.
func Majority(n int) Threshold { return Threshold{Nodes: n, K: n/2 + 1} }

// N implements System.
func (t Threshold) N() int { return t.Nodes }

// IsQuorum implements System.
func (t Threshold) IsQuorum(s Set) bool { return s.Count() >= t.K }

// MinSize implements System.
func (t Threshold) MinSize() int { return t.K }

// String implements System.
func (t Threshold) String() string { return fmt.Sprintf("threshold(%d of %d)", t.K, t.Nodes) }

// ReliabilityAware wraps a base system with the §3.2 refinement: a quorum
// must additionally include at least MinReliable members of the Reliable
// set. This is what lifts the durability of the heterogeneous 7-node Raft
// cluster in experiment E3.
type ReliabilityAware struct {
	Base        System
	Reliable    Set
	MinReliable int
}

// N implements System.
func (r ReliabilityAware) N() int { return r.Base.N() }

// IsQuorum implements System.
func (r ReliabilityAware) IsQuorum(s Set) bool {
	return r.Base.IsQuorum(s) && s.IntersectCount(r.Reliable) >= r.MinReliable
}

// MinSize implements System. The constraint can only keep the minimum the
// same or larger; for threshold bases it stays the base K when the reliable
// set is large enough to be packed inside, which is always true here.
func (r ReliabilityAware) MinSize() int {
	base := r.Base.MinSize()
	if r.MinReliable > r.Reliable.Count() {
		return r.N() + 1 // unsatisfiable
	}
	if base < r.MinReliable {
		return r.MinReliable
	}
	return base
}

// String implements System.
func (r ReliabilityAware) String() string {
	return fmt.Sprintf("reliability-aware(%v, ≥%d of %v)", r.Base, r.MinReliable, r.Reliable)
}

// MinIntersection returns the smallest possible overlap between a quorum of
// a and a quorum of b. For two Threshold systems over n nodes this is the
// closed form ka + kb - n (floored at 0); for general systems it brute
// forces over all subsets, which requires n <= 22 or so.
func MinIntersection(a, b System) int {
	if a.N() != b.N() {
		panic("quorum: MinIntersection across different universes")
	}
	ta, okA := a.(Threshold)
	tb, okB := b.(Threshold)
	if okA && okB {
		m := ta.K + tb.K - ta.Nodes
		if m < 0 {
			m = 0
		}
		return m
	}
	return bruteMinIntersection(a, b)
}

func bruteMinIntersection(a, b System) int {
	n := a.N()
	if n > 22 {
		panic("quorum: brute-force MinIntersection needs n <= 22")
	}
	best := n + 1
	total := uint64(1) << n
	for ma := uint64(0); ma < total; ma++ {
		sa := FromMask(n, ma)
		if !a.IsQuorum(sa) {
			continue
		}
		for mb := uint64(0); mb < total; mb++ {
			sb := FromMask(n, mb)
			if !b.IsQuorum(sb) {
				continue
			}
			if c := sa.IntersectCount(sb); c < best {
				best = c
				if best == 0 {
					return 0
				}
			}
		}
	}
	if best > n {
		return 0 // one of the systems has no quorums at all
	}
	return best
}

// AlwaysIntersect reports whether every quorum of a intersects every quorum
// of b — the classic (pessimistic) quorum-intersection invariant that §4
// proposes to relax probabilistically.
func AlwaysIntersect(a, b System) bool { return MinIntersection(a, b) >= 1 }
