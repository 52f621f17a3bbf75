package optimize

import (
	"math"
	"testing"
)

// simplex is the scaled probability simplex { x >= 0, Σ x_i = scale } as
// the budgeted simplex whose budget never binds: every cost is zero.
func simplex(n int, scale float64) BudgetedSimplex {
	return BudgetedSimplex{N: n, Scale: scale, Costs: make([]float64, n)}
}

// quadOverSimplex is the classic zig-zag instance: minimize ||x - b||^2
// over the unit simplex with the optimum on a face (not a vertex), where
// vanilla Frank-Wolfe alternates between the face's vertices at O(1/t)
// while away-step FW converges linearly.
func quadOverSimplex() (Objective, BudgetedSimplex, []float64) {
	b := []float64{0.52, 0.48, -0.5}
	obj := FuncObjective{
		F: func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - b[i]
				s += d * d
			}
			return s
		},
		G: func(x, out []float64) {
			for i := range x {
				out[i] = 2 * (x[i] - b[i])
			}
		},
	}
	// Optimum: projection of b onto the simplex = (0.52, 0.48, 0) + the
	// uniform shift that restores the sum; it lies on the {x3 = 0} face.
	opt := []float64{0.52, 0.48, 0}
	return obj, simplex(3, 1), opt
}

// TestFrankWolfeInteriorOptimum checks the solver finds an optimum in the
// simplex interior, where FW needs no face chasing at all.
func TestFrankWolfeInteriorOptimum(t *testing.T) {
	b := []float64{0.5, 0.3, 0.2} // on the simplex: unconstrained optimum feasible
	obj := FuncObjective{
		F: func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - b[i]
				s += d * d
			}
			return s
		},
		G: func(x, out []float64) {
			for i := range x {
				out[i] = 2 * (x[i] - b[i])
			}
		},
	}
	sol, err := AwayStepFrankWolfe(obj, simplex(3, 1), Options{GapTolerance: 1e-9, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Errorf("did not converge (gap %v after %d iters)", sol.Gap, sol.Iterations)
	}
	if sol.Value > 1e-8 {
		t.Errorf("value %v, want ~0", sol.Value)
	}
}

// TestSolutionCertificate checks the returned Gap really is the LMO gap
// at the returned point, recomputed independently, and the last entry of
// the tracked trajectory.
func TestSolutionCertificate(t *testing.T) {
	obj, poly, opt := quadOverSimplex()
	sol, err := AwayStepFrankWolfe(obj, poly, Options{GapTolerance: 1e-9, MaxIterations: 20000, TrackGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Gaps) != sol.Iterations+1 || sol.Gaps[sol.Iterations] != sol.Gap {
		t.Errorf("%d tracked gaps ending %v for %d iterations and gap %v", len(sol.Gaps), sol.Gaps[len(sol.Gaps)-1], sol.Iterations, sol.Gap)
	}
	for i := range opt {
		if math.Abs(sol.X[i]-opt[i]) > 1e-3 {
			t.Errorf("X = %v, want ~%v", sol.X, opt)
			break
		}
	}
	grad := make([]float64, 3)
	obj.Grad(sol.X, grad)
	v := poly.LinearMinimize(grad)
	gap := dot(grad, sol.X) - dot(grad, v)
	if math.Abs(gap-sol.Gap) > 1e-12 {
		t.Fatalf("reported gap %v != recomputed %v", sol.Gap, gap)
	}
	if !sol.Converged || sol.Gap > 1e-9 {
		t.Fatalf("expected certified convergence, got gap %v", sol.Gap)
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := AwayStepFrankWolfe(FuncObjective{F: func([]float64) float64 { return 0 }},
		simplex(1, 1), Options{GapTolerance: math.NaN()}); err == nil {
		t.Fatal("want error for NaN tolerance")
	}
	if _, err := AwayStepFrankWolfe(FuncObjective{F: func([]float64) float64 { return 0 }},
		simplex(0, 1), Options{}); err == nil {
		t.Fatal("want error for invalid polytope")
	}
}
