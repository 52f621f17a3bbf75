package montecarlo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Config is one sampled failure configuration.
type Config struct {
	Crashed []bool
	Byz     []bool
}

// N returns the fleet size.
func (c Config) N() int { return len(c.Crashed) }

// Counts returns (#crashed, #byzantine).
func (c Config) Counts() (crashed, byz int) {
	for i := range c.Crashed {
		if c.Crashed[i] {
			crashed++
		}
		if c.Byz[i] {
			byz++
		}
	}
	return crashed, byz
}

// Sampler draws failure configurations. Implementations must reuse the
// provided RNG so runs are reproducible from a single seed.
type Sampler interface {
	Sample(rng *rand.Rand, out *Config)
	N() int
}

// BetaCrash models cluster-level correlation with a shared frailty: each
// sample first draws a fleet-wide crash probability from a Beta
// distribution with the given mean and "correlation" rho in (0,1), then
// crashes nodes i.i.d. at that probability. rho -> 0 recovers independence;
// rho -> 1 makes the whole fleet live or die together. This is the
// beta-binomial fault-clustering model from the storage literature.
type BetaCrash struct {
	Nodes int
	Mean  float64
	Rho   float64
}

// Validate checks parameters.
func (s BetaCrash) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("montecarlo: need nodes > 0")
	}
	if s.Mean <= 0 || s.Mean >= 1 {
		return fmt.Errorf("montecarlo: beta mean %v out of (0,1)", s.Mean)
	}
	if s.Rho <= 0 || s.Rho >= 1 {
		return fmt.Errorf("montecarlo: rho %v out of (0,1)", s.Rho)
	}
	return nil
}

// N implements Sampler.
func (s BetaCrash) N() int { return s.Nodes }

// Sample implements Sampler.
func (s BetaCrash) Sample(rng *rand.Rand, out *Config) {
	// Beta(a, b) with mean m and intra-class correlation rho:
	// a = m(1-rho)/rho, b = (1-m)(1-rho)/rho.
	k := (1 - s.Rho) / s.Rho
	p := sampleBeta(rng, s.Mean*k, (1-s.Mean)*k)
	for i := 0; i < s.Nodes; i++ {
		out.Crashed[i] = rng.Float64() < p
		out.Byz[i] = false
	}
}

// sampleBeta draws Beta(a, b) via two Gamma variates.
func sampleBeta(rng *rand.Rand, a, b float64) float64 {
	x := sampleGamma(rng, a)
	y := sampleGamma(rng, b)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// sampleGamma draws Gamma(shape, 1) with the Marsaglia-Tsang method,
// boosting shapes below 1 with the standard power transform.
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u == 0 {
			continue
		}
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Estimate is a Monte-Carlo probability estimate with a 95% Wilson CI.
type Estimate struct {
	P       float64
	Lo, Hi  float64
	Samples int
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("%.6f [%.6f, %.6f] (n=%d)", e.P, e.Lo, e.Hi, e.Samples)
}

// Run estimates P[pred(config)] under the sampler.
func Run(s Sampler, pred func(Config) bool, samples int, seed int64) (Estimate, error) {
	if samples <= 0 {
		return Estimate{}, fmt.Errorf("montecarlo: need samples > 0, got %d", samples)
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Crashed: make([]bool, s.N()), Byz: make([]bool, s.N())}
	hits := 0
	for i := 0; i < samples; i++ {
		s.Sample(rng, &cfg)
		if pred(cfg) {
			hits++
		}
	}
	lo, hi := dist.WilsonInterval(hits, samples, 1.96)
	return Estimate{P: float64(hits) / float64(samples), Lo: lo, Hi: hi, Samples: samples}, nil
}
