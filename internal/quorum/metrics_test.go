package quorum

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func uniformProbs(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// rowColQuorum returns the grid's canonical minimal quorum: row r plus
// column c.
func rowColQuorum(g Grid, r, c int) Set {
	s := NewSet(g.N())
	for i := 0; i < g.Cols; i++ {
		s.Add(g.index(r, i))
	}
	for i := 0; i < g.Rows; i++ {
		s.Add(g.index(i, c))
	}
	return s
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 9 || g.MinSize() != 5 {
		t.Errorf("N=%d MinSize=%d", g.N(), g.MinSize())
	}
	q := rowColQuorum(g, 1, 2)
	if q.Count() != 5 {
		t.Errorf("row+col quorum size %d", q.Count())
	}
	if !g.IsQuorum(q) {
		t.Error("canonical quorum rejected")
	}
	// A full row alone is not a quorum; neither is a column alone.
	row := SetOf(9, 3, 4, 5)
	col := SetOf(9, 2, 5, 8)
	if g.IsQuorum(row) || g.IsQuorum(col) {
		t.Error("row-only or col-only accepted")
	}
	// Everything is a quorum.
	all := NewSet(9).Complement()
	if !g.IsQuorum(all) {
		t.Error("full set rejected")
	}
	if _, err := NewGrid(0, 3); err == nil {
		t.Error("0 rows accepted")
	}
}

func TestGridQuorumsAlwaysIntersect(t *testing.T) {
	g, _ := NewGrid(3, 3)
	// Any two row+column quorums intersect (row_a crosses col_b).
	for r1 := 0; r1 < 3; r1++ {
		for c1 := 0; c1 < 3; c1++ {
			for r2 := 0; r2 < 3; r2++ {
				for c2 := 0; c2 < 3; c2++ {
					a := rowColQuorum(g, r1, c1)
					b := rowColQuorum(g, r2, c2)
					if a.IntersectCount(b) == 0 {
						t.Fatalf("quorums (%d,%d) and (%d,%d) disjoint", r1, c1, r2, c2)
					}
				}
			}
		}
	}
	if got := MinIntersection(g, g); got < 1 {
		t.Errorf("grid MinIntersection=%d", got)
	}
}

func TestAvailabilityThresholdClosedForm(t *testing.T) {
	// Majority of 5 at p=0.1: alive >= 3 <=> failed <= 2.
	sys := Majority(5)
	got, err := Availability(sys, uniformProbs(5, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - dist.BinomTailGE(5, 0.1, 3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("availability %v, want %v", got, want)
	}
}

func TestAvailabilityEnumerationMatchesClosedForm(t *testing.T) {
	// Wrap a Threshold in a different type to force enumeration.
	type opaque struct{ Threshold }
	sys := opaque{Threshold{Nodes: 6, K: 4}}
	probs := []float64{0.1, 0.2, 0.05, 0.3, 0.15, 0.25}
	got, err := Availability(sys, probs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Availability(sys.Threshold, probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("enumeration %v vs closed form %v", got, want)
	}
}

func TestAvailabilityValidation(t *testing.T) {
	if _, err := Availability(Majority(3), uniformProbs(4, 0.1)); err == nil {
		t.Error("length mismatch accepted")
	}
	big, _ := NewGrid(5, 5)
	if _, err := Availability(big, uniformProbs(25, 0.1)); err == nil {
		t.Error("N=25 enumeration accepted")
	}
}

func TestGridAvailabilityBeatsNothingSensible(t *testing.T) {
	// Grid availability at small p is high but below majority of the same
	// N (grid trades availability for load).
	g, _ := NewGrid(3, 3)
	ga, err := Availability(g, uniformProbs(9, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := Availability(Majority(9), uniformProbs(9, 0.05))
	if !(ga > 0.9) {
		t.Errorf("grid availability %v implausibly low", ga)
	}
	if !(ma > ga) {
		t.Errorf("majority availability %v should exceed grid %v", ma, ga)
	}
}

func TestSystemLoadThreshold(t *testing.T) {
	load, err := SystemLoad(Majority(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-0.6) > 1e-12 {
		t.Errorf("majority(5) load %v, want 3/5", load)
	}
}

func TestSystemLoadGridBeatsMajority(t *testing.T) {
	// The whole point of grids: load ~ 2/sqrt(N) vs majority's ~1/2.
	g, _ := NewGrid(4, 4)
	gl, err := SystemLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := SystemLoad(Majority(16))
	if !(gl < ml) {
		t.Errorf("grid load %v not below majority %v", gl, ml)
	}
	want := 0.25 + 0.25 - 1.0/16
	if math.Abs(gl-want) > 1e-12 {
		t.Errorf("grid load %v, want %v", gl, want)
	}
}

// loadLowerBound is Naor-Wool's universal bound max(1/c(S), c(S)/n) where
// c(S) is the smallest quorum size: no access strategy loads the busiest
// node less.
func loadLowerBound(sys System) float64 {
	c := float64(sys.MinSize())
	n := float64(sys.N())
	return math.Max(1/c, c/n)
}

func TestSystemLoadRespectsLowerBound(t *testing.T) {
	systems := []System{
		Majority(5), Majority(9), Threshold{Nodes: 7, K: 5},
	}
	g, _ := NewGrid(3, 3)
	systems = append(systems, g)
	for _, s := range systems {
		load, err := SystemLoad(s)
		if err != nil {
			t.Fatal(err)
		}
		if lb := loadLowerBound(s); load < lb-1e-12 {
			t.Errorf("%v: load %v below Naor-Wool bound %v", s, load, lb)
		}
	}
}

func TestBruteLoadMatchesClosedFormSmall(t *testing.T) {
	type opaque struct{ Threshold }
	sys := opaque{Threshold{Nodes: 5, K: 3}}
	got, err := SystemLoad(sys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("brute load %v, want 0.6", got)
	}
	// Grid via brute force matches the closed form too.
	type opaqueGrid struct{ Grid }
	g, _ := NewGrid(3, 3)
	bg, err := SystemLoad(opaqueGrid{g})
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := SystemLoad(g)
	if math.Abs(bg-cf) > 1e-12 {
		t.Errorf("grid brute load %v vs closed form %v", bg, cf)
	}
}

func TestEvaluateShootout(t *testing.T) {
	g, _ := NewGrid(3, 3)
	systems := []System{Majority(9), Threshold{Nodes: 9, K: 7}, g}
	metrics, err := Evaluate(systems, uniformProbs(9, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 3 {
		t.Fatalf("got %d metric rows", len(metrics))
	}
	for _, m := range metrics {
		if m.Name == "" || m.MinQuorum <= 0 {
			t.Errorf("bad row %+v", m)
		}
		if m.Load <= 0 || m.Load > 1 || m.Availability <= 0 || m.Availability > 1 {
			t.Errorf("out-of-range metrics %+v", m)
		}
	}
	// Bigger quorums: more load, less availability.
	if !(metrics[1].Load > metrics[0].Load) {
		t.Error("7-of-9 load should exceed majority")
	}
	if !(metrics[1].Availability < metrics[0].Availability) {
		t.Error("7-of-9 availability should trail majority")
	}
}
