package optimize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultcurve"
)

// bisectStep is the line search exactStep replaced, kept as its oracle: 64
// sign bisections of φ' after the boundary test, resolving the step to one
// ulp. It ignores the slope it is handed.
func bisectStep(dphi func(gamma float64) float64, _, gammaMax float64) float64 {
	if dphi(gammaMax) <= 0 {
		return gammaMax // still descending at the boundary
	}
	lo, hi := 0.0, gammaMax
	for i := 0; i < 64 && hi > lo; i++ {
		mid := 0.5 * (lo + hi)
		if mid <= lo || mid >= hi {
			break
		}
		if dphi(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestExactStep runs the line search on its own over 1-D derivatives of the
// shapes the solvers hand it: every returned step must still descend, agree
// with the bisection oracle to the stated tolerance, and stay inside the
// probe cap the serving layer's work bound is built on.
func TestExactStep(t *testing.T) {
	cases := []struct {
		name     string
		gammaMax float64
		dphi     func(g float64) float64
		// loose marks derivatives built to defeat interpolation: only
		// descent and the probe cap are asserted, not the oracle distance.
		loose bool
	}{
		{name: "linear", gammaMax: 1, dphi: func(g float64) float64 { return g - 0.3 }},
		{name: "exponential decay", gammaMax: 1, dphi: func(g float64) float64 { return 0.05 - math.Exp(-g/0.25) }},
		{name: "log-unavailability", gammaMax: 1, dphi: func(g float64) float64 {
			// d/dγ ln(a·e^{-2γ} + b·e^{γ}): the shape of moving spend from
			// one node's curve to another's.
			a, b := 0.08*math.Exp(-2*g), 0.01*math.Exp(g)
			return (b - 2*a) / (a + b)
		}},
		{name: "kink", gammaMax: 1, dphi: func(g float64) float64 {
			if g < 0.4 {
				return g - 0.4
			}
			return 50 * (g - 0.4)
		}},
		{name: "flat then steep", gammaMax: 1, dphi: func(g float64) float64 {
			return -1e-6 + 1e3*math.Pow(math.Max(0, g-0.9), 3)
		}},
		{name: "high-order contact", gammaMax: 1, dphi: func(g float64) float64 { return math.Pow(g, 25) - 1e-12 }},
		{name: "root within 1e-15 of 0", gammaMax: 1, dphi: func(g float64) float64 { return g - 1e-15 }},
		{name: "root just inside gammaMax", gammaMax: 1, dphi: func(g float64) float64 { return g - (1 - 1e-15) }},
		{name: "root at gammaMax", gammaMax: 1, dphi: func(g float64) float64 { return g - 1 }},
		{name: "descending at gammaMax", gammaMax: 1, dphi: func(g float64) float64 { return -1 - g }},
		{name: "huge gammaMax", gammaMax: 1e15, dphi: func(g float64) float64 { return 0.3 - math.Exp(-g/3e14) }},
		{name: "tiny gammaMax", gammaMax: 1e-14, dphi: func(g float64) float64 { return 0.6 - math.Exp(-g/1e-14) }},
		{name: "step function", gammaMax: 1, loose: true, dphi: func(g float64) float64 {
			if g < math.Pi/10 {
				return -1
			}
			return 1
		}},
		{name: "lopsided step function", gammaMax: 1, loose: true, dphi: func(g float64) float64 {
			if g < 1e-7 {
				return -1e-9
			}
			return 1e9
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probes := 0
			counted := func(g float64) float64 {
				if g < 0 || g > tc.gammaMax {
					t.Fatalf("probe at %v outside [0, %v]", g, tc.gammaMax)
				}
				probes++
				return tc.dphi(g)
			}
			got := exactStep(counted, tc.dphi(0), tc.gammaMax)
			if probes > maxStepProbes {
				t.Errorf("%d probes, cap is %d", probes, maxStepProbes)
			}
			if got < 0 || got > tc.gammaMax || tc.dphi(got) > 0 {
				t.Errorf("returned step %v has φ' = %v, want a step in [0, %v] that still descends", got, tc.dphi(got), tc.gammaMax)
			}
			want := bisectStep(tc.dphi, 0, tc.gammaMax)
			if diff := math.Abs(got - want); !tc.loose && diff > stepTolerance*tc.gammaMax {
				t.Errorf("step %v, oracle %v: |Δ| = %.3g > %.3g", got, want, diff, stepTolerance*tc.gammaMax)
			}
			t.Logf("%d probes, step %v (oracle %v)", probes, got, want)
		})
	}
}

// servedProfile draws one node of the served shape.
func servedProfile(rng *rand.Rand) faultcurve.Profile {
	return faultcurve.Profile{PCrash: 0.01 + 0.07*rng.Float64(), PByz: 0.001 * rng.Float64()}
}

// servedProblem draws one optimize problem of the shape probconsd's
// planner traffic has (bench's solver_mix): five heterogeneous raft nodes,
// a little Byzantine mass, budget 1-4, unit-scale curves with a 10 % floor.
func servedProblem(rng *rand.Rand) HardeningProblem {
	const n = 5
	fleet := make(core.Fleet, n)
	curves := make([]faultcurve.Response, n)
	for i := range fleet {
		prof := servedProfile(rng)
		fleet[i] = core.Node{Profile: prof}
		curves[i] = faultcurve.HardeningResponse(prof.PFail(), 0.1, 1)
	}
	return HardeningProblem{Fleet: fleet, Model: core.NewRaft(n), Curves: curves, Budget: 1 + 3*rng.Float64()}
}

// TestLineSearchPin is the solver-level pin of the step rule over 200
// seeded problems of the served shape, each solved twice: with exactStep
// and with the bisection oracle. Every solve must be certified, take the
// oracle's iteration count within one, and stay inside the serving layer's
// work bound — (iterations+1)·70 gradient calls, service.
// gradCallsPerIteration — which the bound used to assume and this asserts.
// The mean probes per iteration is what the step rule buys (61 under
// bisection); 14 leaves room for platform round-off, not for a regression.
func TestLineSearchPin(t *testing.T) {
	const problems, tolerance, workBound = 200, 1e-9, 70
	rng := rand.New(rand.NewSource(15))
	var iters, grads, oracleGrads int
	for k := 0; k < problems; k++ {
		p := servedProblem(rng)
		opts := Options{GapTolerance: tolerance}
		sol, err := AwayStepFrankWolfe(p.Objective(), p.Polytope(), opts)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := awayStepFrankWolfe(p.Objective(), p.Polytope(), opts, bisectStep)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged || sol.Gap > tolerance {
			t.Errorf("problem %d: not certified: converged=%v gap=%v after %d iterations", k, sol.Converged, sol.Gap, sol.Iterations)
		}
		if d := sol.Iterations - oracle.Iterations; d < -1 || d > 1 {
			t.Errorf("problem %d: %d iterations, oracle line search %d", k, sol.Iterations, oracle.Iterations)
		}
		for _, s := range []Solution{sol, oracle} {
			if s.GradEvaluations > (s.Iterations+1)*workBound {
				t.Errorf("problem %d: %d gradient calls in %d iterations breaks the %d-per-iteration work bound", k, s.GradEvaluations, s.Iterations, workBound)
			}
		}
		iters += sol.Iterations
		grads += sol.GradEvaluations
		oracleGrads += oracle.GradEvaluations
	}
	perSolve, perIter := float64(grads)/problems, float64(grads)/float64(iters)
	t.Logf("%d problems: %.2f iterations, %.1f gradient calls per solve (%.2f per iteration); oracle %.1f per solve",
		problems, float64(iters)/problems, perSolve, perIter, float64(oracleGrads)/problems)
	if perIter > 14 || perSolve > 300 {
		t.Errorf("%.2f gradient calls per iteration, %.1f per solve; want <= 14 and <= 300", perIter, perSolve)
	}
}
