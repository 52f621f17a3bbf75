package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BudgetedSimplex is the solver tests' second Polytope (Knapsack is the
// product's only one): the scaled simplex intersected with one budget
// halfspace, { x : x_i >= 0, Σ x_i = Scale, Σ c_i x_i <= Budget }. Its
// vertices are the affordable pure vertices plus the two-coordinate edge
// points where the budget is tight, so the LMO enumerates O(n^2)
// candidates exactly.
type BudgetedSimplex struct {
	N      int
	Scale  float64
	Costs  []float64
	Budget float64
}

// Dim implements Polytope.
func (s BudgetedSimplex) Dim() int { return s.N }

// Validate implements Polytope.
func (s BudgetedSimplex) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("optimize: simplex needs dimension >= 1, got %d", s.N)
	}
	if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale <= 0 {
		return fmt.Errorf("optimize: simplex scale must be finite and > 0, got %v", s.Scale)
	}
	if len(s.Costs) != s.N {
		return fmt.Errorf("optimize: budgeted simplex has %d costs for %d coordinates", len(s.Costs), s.N)
	}
	cheapest := math.Inf(1)
	for i, c := range s.Costs {
		if math.IsNaN(c) || c < 0 || math.IsInf(c, 0) {
			return fmt.Errorf("optimize: budgeted simplex cost %d must be finite and >= 0, got %v", i, c)
		}
		cheapest = math.Min(cheapest, c)
	}
	if math.IsNaN(s.Budget) || math.IsInf(s.Budget, 0) {
		return fmt.Errorf("optimize: budgeted simplex budget must be finite, got %v", s.Budget)
	}
	if cheapest*s.Scale > s.Budget {
		return fmt.Errorf("optimize: cheapest pure mix costs %v, budget %v (empty polytope)", cheapest*s.Scale, s.Budget)
	}
	return nil
}

// LinearMinimize implements Polytope.
func (s BudgetedSimplex) LinearMinimize(grad []float64) []float64 {
	bestVal := math.Inf(1)
	var best []float64
	consider := func(v []float64) {
		val := 0.0
		for i := range v {
			val += grad[i] * v[i]
		}
		if val < bestVal {
			bestVal = val
			best = v
		}
	}
	// Affordable pure vertices.
	for i := 0; i < s.N; i++ {
		if s.Costs[i]*s.Scale <= s.Budget {
			v := make([]float64, s.N)
			v[i] = s.Scale
			consider(v)
		}
	}
	// Budget-tight edge points between an over-budget coordinate i and a
	// below-budget coordinate j: θ·Scale on i, (1-θ)·Scale on j with
	// θ·c_i + (1-θ)·c_j = Budget/Scale.
	beta := s.Budget / s.Scale
	for i := 0; i < s.N; i++ {
		if s.Costs[i] <= beta {
			continue
		}
		for j := 0; j < s.N; j++ {
			if s.Costs[j] >= beta {
				continue
			}
			theta := (beta - s.Costs[j]) / (s.Costs[i] - s.Costs[j])
			v := make([]float64, s.N)
			v[i] = theta * s.Scale
			v[j] = (1 - theta) * s.Scale
			consider(v)
		}
	}
	return best
}

func feasibleSimplex(t *testing.T, s BudgetedSimplex, x []float64) {
	t.Helper()
	sum := 0.0
	for _, v := range x {
		if v < -1e-12 {
			t.Fatalf("negative coordinate %v", v)
		}
		sum += v
	}
	if math.Abs(sum-s.Scale) > 1e-9 {
		t.Fatalf("sum %v != scale %v", sum, s.Scale)
	}
}

// TestSimplexLMO pins the plain simplex — a budgeted simplex with nothing
// to pay — whose LMO puts all mass on the smallest gradient entry.
func TestSimplexLMO(t *testing.T) {
	s := simplex(4, 2.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	v := s.LinearMinimize([]float64{3, -1, 0.5, -1 + 1e-9})
	feasibleSimplex(t, s, v)
	if v[1] != 2.5 {
		t.Fatalf("LMO should put all mass on coordinate 1, got %v", v)
	}
	if err := simplex(0, 1).Validate(); err == nil {
		t.Fatal("want error for empty simplex")
	}
	if err := simplex(2, 0).Validate(); err == nil {
		t.Fatal("want error for zero scale")
	}
}

func knapsackFeasible(t *testing.T, k Knapsack, x []float64) {
	t.Helper()
	spend := 0.0
	for i := range x {
		if x[i] < k.Lo[i]-1e-12 || x[i] > k.Hi[i]+1e-12 {
			t.Fatalf("coordinate %d = %v outside [%v, %v]", i, x[i], k.Lo[i], k.Hi[i])
		}
		spend += k.cost(i) * x[i]
	}
	if spend > k.Budget+1e-9 {
		t.Fatalf("spend %v exceeds budget %v", spend, k.Budget)
	}
}

// TestKnapsackLMOOptimal checks the greedy oracle against random feasible
// points: no feasible point may score below the LMO vertex.
func TestKnapsackLMOOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		k := Knapsack{
			Lo:     make([]float64, n),
			Hi:     make([]float64, n),
			Costs:  make([]float64, n),
			Budget: 1 + rng.Float64()*3,
		}
		for i := 0; i < n; i++ {
			k.Lo[i] = rng.Float64() * 0.2
			k.Hi[i] = k.Lo[i] + rng.Float64()*2
			k.Costs[i] = 0.2 + rng.Float64()
		}
		if err := k.Validate(); err != nil {
			// Floor spend above budget: regenerate by shrinking floors.
			for i := range k.Lo {
				k.Lo[i] = 0
			}
			if err := k.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		v := k.LinearMinimize(g)
		knapsackFeasible(t, k, v)
		best := dot(g, v)
		for s := 0; s < 400; s++ {
			u := make([]float64, n)
			spend := 0.0
			for i := range u {
				u[i] = k.Lo[i] + rng.Float64()*(k.Hi[i]-k.Lo[i])
				spend += k.Costs[i] * u[i]
			}
			if spend > k.Budget {
				// Scale the above-floor part back into budget.
				floor := 0.0
				for i := range u {
					floor += k.Costs[i] * k.Lo[i]
				}
				scale := (k.Budget - floor) / (spend - floor)
				for i := range u {
					u[i] = k.Lo[i] + scale*(u[i]-k.Lo[i])
				}
			}
			knapsackFeasible(t, k, u)
			if dot(g, u) < best-1e-9 {
				t.Fatalf("trial %d: feasible point %v scores %v < LMO %v", trial, u, dot(g, u), best)
			}
		}
	}
}

// TestKnapsackLMOUnconstrained pins the degenerate case: with a budget
// covering every cap, each coordinate independently takes the bound its
// gradient entry points away from.
func TestKnapsackLMOUnconstrained(t *testing.T) {
	k := Knapsack{Lo: []float64{-1, 0, 2}, Hi: []float64{1, 3, 2}, Budget: 100}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	v := k.LinearMinimize([]float64{1, -1, -5})
	want := []float64{-1, 3, 2}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("knapsack LMO with slack budget = %v, want %v", v, want)
		}
	}
	if err := (Knapsack{Lo: []float64{1}, Hi: []float64{0}, Budget: 100}).Validate(); err == nil {
		t.Fatal("want error for inverted bounds")
	}
	if err := (Knapsack{Lo: []float64{0, 0}, Hi: []float64{1}, Budget: 100}).Validate(); err == nil {
		t.Fatal("want error for mismatched bounds")
	}
}

func TestBudgetedSimplexLMO(t *testing.T) {
	s := BudgetedSimplex{N: 3, Scale: 5, Costs: []float64{1.0, 0.25, 0.1}, Budget: 2.0}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		v := s.LinearMinimize(g)
		// Feasibility.
		sum, spend := 0.0, 0.0
		for i := range v {
			if v[i] < -1e-12 {
				t.Fatalf("negative mass %v", v)
			}
			sum += v[i]
			spend += s.Costs[i] * v[i]
		}
		if math.Abs(sum-s.Scale) > 1e-9 || spend > s.Budget+1e-9 {
			t.Fatalf("infeasible LMO output %v (sum %v, spend %v)", v, sum, spend)
		}
		// Optimality against random feasible mixes.
		best := dot(g, v)
		for k := 0; k < 200; k++ {
			w := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			tot := w[0] + w[1] + w[2]
			for i := range w {
				w[i] = w[i] / tot * s.Scale
			}
			c := 0.0
			for i := range w {
				c += s.Costs[i] * w[i]
			}
			if c > s.Budget {
				continue
			}
			if dot(g, w) < best-1e-9 {
				t.Fatalf("feasible mix %v scores %v < LMO %v", w, dot(g, w), best)
			}
		}
	}
	// Empty polytope.
	if err := (BudgetedSimplex{N: 2, Scale: 1, Costs: []float64{5, 6}, Budget: 1}).Validate(); err == nil {
		t.Fatal("want error when even the cheapest pure mix is unaffordable")
	}
}
