package optimize

import (
	"fmt"
	"math"
)

// Polytope is a compact convex feasible region accessed exclusively
// through its linear-minimization oracle — the only geometric primitive a
// conditional-gradient method needs. Implementations must return vertices
// (extreme points): away-step Frank-Wolfe represents its iterate as a
// convex combination of LMO outputs and relies on them being extremal.
type Polytope interface {
	// Dim returns the ambient dimension.
	Dim() int
	// LinearMinimize returns a fresh vertex v minimizing <grad, v> over
	// the polytope. Ties may be broken arbitrarily but deterministically.
	LinearMinimize(grad []float64) []float64
	// Validate rejects empty or malformed regions.
	Validate() error
}

// Knapsack is the budget-knapsack polytope
// { x : Lo_i <= x_i <= Hi_i, Σ c_i x_i <= Budget } — "spend at most
// Budget, with per-coordinate caps". Costs must be strictly positive. Its
// LMO is the classic fractional-knapsack greedy: coordinates whose
// gradient is non-negative stay at their floor; the rest are raised to
// their cap in order of gradient-per-cost until the budget runs out (the
// last one possibly fractionally — still a vertex, where the budget
// constraint is tight).
type Knapsack struct {
	Lo, Hi []float64
	// Costs holds the per-unit budget cost of each coordinate. Nil means
	// unit costs.
	Costs  []float64
	Budget float64
}

// Dim implements Polytope.
func (k Knapsack) Dim() int { return len(k.Lo) }

func (k Knapsack) cost(i int) float64 {
	if k.Costs == nil {
		return 1
	}
	return k.Costs[i]
}

// Validate implements Polytope.
func (k Knapsack) Validate() error {
	if len(k.Lo) == 0 || len(k.Lo) != len(k.Hi) {
		return fmt.Errorf("optimize: knapsack needs matching non-empty bounds, got %d/%d", len(k.Lo), len(k.Hi))
	}
	for i := range k.Lo {
		if math.IsNaN(k.Lo[i]) || math.IsNaN(k.Hi[i]) || k.Lo[i] > k.Hi[i] {
			return fmt.Errorf("optimize: knapsack bound %d inverted or NaN: [%v, %v]", i, k.Lo[i], k.Hi[i])
		}
	}
	if k.Costs != nil && len(k.Costs) != len(k.Lo) {
		return fmt.Errorf("optimize: knapsack has %d costs for %d coordinates", len(k.Costs), len(k.Lo))
	}
	if math.IsNaN(k.Budget) || math.IsInf(k.Budget, 0) {
		return fmt.Errorf("optimize: knapsack budget must be finite, got %v", k.Budget)
	}
	floor := 0.0
	for i := range k.Lo {
		c := k.cost(i)
		if math.IsNaN(c) || c <= 0 || math.IsInf(c, 0) {
			return fmt.Errorf("optimize: knapsack cost %d must be finite and > 0, got %v", i, c)
		}
		floor += c * k.Lo[i]
	}
	if floor > k.Budget {
		return fmt.Errorf("optimize: knapsack floor spend %v exceeds budget %v (empty polytope)", floor, k.Budget)
	}
	return nil
}

// LinearMinimize implements Polytope.
func (k Knapsack) LinearMinimize(grad []float64) []float64 {
	n := len(k.Lo)
	v := make([]float64, n)
	remaining := k.Budget
	for i := range v {
		v[i] = k.Lo[i]
		remaining -= k.cost(i) * k.Lo[i]
	}
	// Raise negative-gradient coordinates in order of objective decrease
	// per unit of budget, steepest first.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if grad[i] < 0 && k.Hi[i] > k.Lo[i] {
			order = append(order, i)
		}
	}
	// Insertion sort by grad_i/cost_i ascending (most negative first):
	// dimensions here are small, and this avoids pulling in sort for a
	// hot oracle.
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			i, j := order[b], order[b-1]
			if grad[i]/k.cost(i) < grad[j]/k.cost(j) {
				order[b], order[b-1] = order[b-1], order[b]
			} else {
				break
			}
		}
	}
	for _, i := range order {
		if remaining <= 0 {
			break
		}
		c := k.cost(i)
		room := k.Hi[i] - k.Lo[i]
		take := math.Min(room, remaining/c)
		v[i] += take
		remaining -= take * c
	}
	return v
}
