package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// SetOf builds a set over n indices containing the given members.
func SetOf(n int, members ...int) Set {
	s := NewSet(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

func TestSetBasicOps(t *testing.T) {
	s := NewSet(10)
	if s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Add(0)
	s.Add(7)
	s.Add(9)
	if !s.Has(0) || !s.Has(7) || !s.Has(9) || s.Has(3) {
		t.Error("membership wrong after Add")
	}
	if s.Count() != 3 {
		t.Errorf("Count=%d", s.Count())
	}
	s.Remove(7)
	if s.Has(7) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	s.Remove(7) // idempotent
	if s.Count() != 2 {
		t.Error("double Remove changed count")
	}
}

func TestSetLargeUniverse(t *testing.T) {
	// Straddles multiple words (N=100 as in the paper's §4 example).
	s := NewSet(100)
	for _, i := range []int{0, 63, 64, 65, 99} {
		s.Add(i)
	}
	if s.Count() != 5 {
		t.Errorf("Count=%d", s.Count())
	}
	got := s.Members()
	want := []int{0, 63, 64, 65, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members=%v", got)
		}
	}
	c := s.Complement()
	if c.Count() != 95 || c.Has(64) || !c.Has(1) {
		t.Error("Complement over multi-word set wrong")
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	s := NewSet(5)
	for _, f := range []func(){
		func() { s.Add(5) },
		func() { s.Add(-1) },
		func() { s.Has(5) },
		func() { s.Remove(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range index")
				}
			}()
			f()
		}()
	}
}

func TestSetAlgebra(t *testing.T) {
	a := SetOf(8, 0, 1, 2, 3)
	b := SetOf(8, 2, 3, 4, 5)
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount=%d", got)
	}
	if got := b.IntersectCount(a); got != 2 {
		t.Errorf("IntersectCount not symmetric: %d", got)
	}
	if got := a.IntersectCount(SetOf(8, 6, 7)); got != 0 {
		t.Errorf("disjoint sets share %d members", got)
	}
	if got := a.IntersectCount(a); got != 4 {
		t.Errorf("IntersectCount with itself = %d", got)
	}
	// Inputs unchanged.
	if a.Count() != 4 || b.Count() != 4 {
		t.Error("algebra mutated operands")
	}
}

func TestSetComplementProperty(t *testing.T) {
	f := func(seed int64, nr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nr%130)
		s := NewSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		c := s.Complement()
		if s.Count()+c.Count() != n {
			return false
		}
		if s.IntersectCount(c) != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Has(i) == c.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMask(t *testing.T) {
	s := FromMask(6, 0b101001)
	if got := s.String(); got != "{0,3,5}/6" {
		t.Errorf("FromMask = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromMask must panic for n > 64")
		}
	}()
	FromMask(65, 1)
}

func TestSetString(t *testing.T) {
	if got := SetOf(7, 0, 2, 5).String(); got != "{0,2,5}/7" {
		t.Errorf("String=%q", got)
	}
	if got := NewSet(3).String(); got != "{}/3" {
		t.Errorf("empty String=%q", got)
	}
}

func TestMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched universes")
		}
	}()
	SetOf(4, 1).IntersectCount(SetOf(5, 1))
}
