package quorum

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a set of node indices in [0, N). It is a small bitset; N is fixed
// at construction. The zero value is unusable — use NewSet.
type Set struct {
	n     int
	words []uint64
}

// NewSet returns an empty set over n node indices.
func NewSet(n int) Set {
	if n < 0 {
		panic("quorum: negative set universe")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromMask builds a set over n <= 64 indices from a bitmask — the exact
// enumeration engine iterates masks directly.
func FromMask(n int, mask uint64) Set {
	if n > wordBits {
		panic("quorum: FromMask requires n <= 64")
	}
	s := NewSet(n)
	if len(s.words) > 0 {
		s.words[0] = mask
	}
	return s
}

// N returns the universe size.
func (s Set) N() int { return s.n }

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("quorum: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts index i.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes index i.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Has reports membership of i.
func (s Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the cardinality.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// IntersectCount returns |s ∩ t|. Panics if universes differ.
func (s Set) IntersectCount(t Set) int {
	s.mustMatch(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// Complement returns the universe minus s.
func (s Set) Complement() Set {
	u := s.Clone()
	for i := range u.words {
		u.words[i] = ^u.words[i]
	}
	// Clear bits beyond n.
	if extra := s.n % wordBits; extra != 0 && len(u.words) > 0 {
		u.words[len(u.words)-1] &= (1 << extra) - 1
	}
	return u
}

// Members returns the sorted member indices.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders like "{0,2,5}/7".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	fmt.Fprintf(&b, "}/%d", s.n)
	return b.String()
}

func (s Set) mustMatch(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("quorum: mismatched universes %d vs %d", s.n, t.n))
	}
}
