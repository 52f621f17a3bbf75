package montecarlo

import (
	"math"
	"math/rand"
	"testing"
)

func TestSampleBetaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := 2.0, 5.0
	var sum, sumSq float64
	const n = 200_000
	for i := 0; i < n; i++ {
		x := sampleBeta(rng, a, b)
		if x < 0 || x > 1 {
			t.Fatalf("beta sample %v out of [0,1]", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	wantMean := a / (a + b)
	if math.Abs(mean-wantMean) > 0.005 {
		t.Errorf("beta mean %v, want %v", mean, wantMean)
	}
	variance := sumSq/n - mean*mean
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(variance-wantVar) > 0.002 {
		t.Errorf("beta var %v, want %v", variance, wantVar)
	}
}

func TestSampleGammaMean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		var sum float64
		const n = 100_000
		for i := 0; i < n; i++ {
			sum += sampleGamma(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("gamma(%v) mean %v", shape, mean)
		}
	}
	if sampleGamma(rng, 0) != 0 {
		t.Error("gamma(0) must be 0")
	}
}
