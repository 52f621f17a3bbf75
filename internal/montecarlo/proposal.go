package montecarlo

import (
	"math"
	"math/rand"
)

// The importance samplers' kernel. A proposal holds everything about a
// run that does not depend on the random draws — for every coin the run
// can flip, the cumulative thresholds the draw is compared against and
// the log-likelihood-ratio increment of each outcome — so a sample is
// one draw, two integer compares, one table read and one add per coin.

// cell is one coin of the proposal: a node in one shock state, or one
// domain's shock. A uniform draw u lands on outcome 2 (crashed) when
// u < t0, on 1 (Byzantine) when t0 <= u < t1 and on 0 (correct)
// otherwise — the outcome index is the number of thresholds above the
// draw — and adds inc[outcome] to the sample's log-weight. Two-outcome
// coins have t0 == t1, so outcome 1 never comes up.
type cell struct {
	t0, t1 int64 // bit patterns of the thresholds, t0 <= t1
	inc    [3]float64
}

// threshold returns the bit pattern pick compares draws against. For
// the non-negative values involved float order is bit-pattern order;
// anything no draw from [0, 1) is below — 0, -0, a negative, NaN —
// becomes +0, so a sign or NaN bit cannot flip the integer comparison.
func threshold(t float64) int64 {
	if !(t > 0) {
		return 0
	}
	return int64(math.Float64bits(t))
}

// triCell is the coin of a node with true crash/Byzantine probabilities
// pc, pb under boost: the tilted mass is clamped to [true mass,
// MaxTiltMass], preserving the crash/Byzantine split.
func triCell(pc, pb, boost float64) cell {
	f := pc + pb
	tc, tb := pc, pb
	if f > 0 && f < MaxTiltMass && boost > 1 {
		tf := f * boost
		if tf > MaxTiltMass {
			tf = MaxTiltMass
		}
		scale := tf / f
		tc, tb = pc*scale, pb*scale
	}
	c := cell{t0: threshold(tc), t1: threshold(tc + tb)}
	if c.t1 < c.t0 {
		c.t1 = c.t0
	}
	c.inc[2] = math.Log(pc) - math.Log(tc)
	c.inc[1] = math.Log(pb) - math.Log(tb)
	c.inc[0] = math.Log1p(-f) - math.Log1p(-(tc + tb))
	return c
}

// coinCell is a two-outcome coin that comes up with true probability p
// and is sampled at q.
func coinCell(p, q float64) cell {
	c := cell{t0: threshold(q), t1: threshold(q)}
	c.inc[2] = math.Log(p) - math.Log(q)
	c.inc[0] = math.Log1p(-p) - math.Log1p(-q)
	return c
}

// pick returns the outcome of draw u in [0, 1) without a branch: both
// operands of each subtraction are non-negative, so it cannot overflow
// and its sign bit is exactly "u is below the threshold". The obvious
// three-way switch mispredicts on nearly every node, because the tilt
// drives each node's failure mass to MaxTiltMass — a coin flip.
func (c *cell) pick(u float64) int {
	ub := int64(math.Float64bits(u))
	return int(uint64(ub-c.t0)>>63 + uint64(ub-c.t1)>>63)
}

// proposal is one run's table. nodes holds a bank of n base cells and,
// when the run has domains, a second bank of n shock-elevated cells; node
// i reads bank fired[slot[i]], where slot 0 is the never-firing "no
// domain" entry and slot d+1 belongs to domain d.
type proposal struct {
	shocks []cell
	nodes  []cell
	slot   []int
	fired  []int  // 0 or 1, rewritten every sample
	failed []bool // optional: whether each node failed, rewritten every sample
}

// sample draws one configuration — one draw per domain in order, then
// one per node in order — and returns its fault counts and log
// likelihood ratio, accumulated in draw order.
func (p *proposal) sample(rng *rand.Rand) (crashed, byz int, logW float64) {
	for d := range p.shocks {
		c := &p.shocks[d]
		k := c.pick(rng.Float64())
		p.fired[d+1] = k >> 1
		logW += c.inc[k]
	}
	n := len(p.slot)
	for i, s := range p.slot {
		c := &p.nodes[p.fired[s]*n+i]
		k := c.pick(rng.Float64())
		crashed += k >> 1
		byz += k & 1
		logW += c.inc[k]
		if p.failed != nil {
			p.failed[i] = k != 0
		}
	}
	return crashed, byz, logW
}

// estimate runs the sample loop: seeds the generator, draws samples
// configurations, and averages the likelihood-ratio weights of those
// hit accepts.
func (p *proposal) estimate(samples int, seed int64, hit TriPred) ImportanceEstimate {
	rng := rand.New(rand.NewSource(seed))
	var sumW, sumW2 float64
	for s := 0; s < samples; s++ {
		crashed, byz, logW := p.sample(rng)
		if hit(crashed, byz) {
			w := math.Exp(logW)
			sumW += w
			sumW2 += w * w
		}
	}
	nf := float64(samples)
	mean := sumW / nf
	variance := sumW2/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	ess := 0.0
	if sumW2 > 0 {
		ess = sumW * sumW / sumW2
	}
	return ImportanceEstimate{
		P:                mean,
		StdErr:           math.Sqrt(variance / nf),
		Samples:          samples,
		EffectiveSamples: ess,
	}
}
