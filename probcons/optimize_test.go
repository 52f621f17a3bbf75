package probcons

import (
	"testing"

	"repro/internal/faultcurve"
)

func hardeningExemplar() HardeningProblem {
	bases := []float64{0.08, 0.05, 0.03, 0.02, 0.01}
	fleet := make(Fleet, len(bases))
	curves := make([]faultcurve.Response, len(bases))
	for i, b := range bases {
		fleet[i] = Node{Name: "node", Profile: faultcurve.Crash(b)}
		curves[i] = HardeningCurve(b, 0.1, 0.25)
	}
	return HardeningProblem{Fleet: fleet, Model: NewRaft(len(bases)), Curves: curves, Budget: 1.0}
}

// TestOptimizeFacade runs the hardening exemplar through the public
// facade and checks the certificate survives the plumbing.
func TestOptimizeFacade(t *testing.T) {
	a, err := Optimize(hardeningExemplar(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged {
		t.Fatalf("no certificate: gap %v", a.Gap)
	}
	if a.NinesGainedOverUniform() <= 0 {
		t.Errorf("optimized split must beat uniform: gained %v nines", a.NinesGainedOverUniform())
	}
}
