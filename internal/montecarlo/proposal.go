package montecarlo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faultcurve"
)

// The sampler kernel. A Draws holds everything about a run that does not
// depend on the random draws — for every coin the run can flip, the
// cumulative thresholds the draw is compared against and the
// log-likelihood-ratio increment of each outcome — so a sample is one
// draw, two integer compares, one table read and one add per coin.

// cell is one coin of the proposal: a node in one shock state, or one
// domain's shock. A uniform draw u lands on outcome 2 (crashed) when
// u < t0, on 1 (Byzantine) when t0 <= u < t1 and on 0 (correct)
// otherwise — the outcome index is the number of thresholds above the
// draw — and adds inc[outcome] to the sample's log-weight. Two-outcome
// coins have t0 == t1, so outcome 1 never comes up.
type cell struct {
	t0, t1 int64 // bit patterns of the thresholds, t0 <= t1
	inc    [3]float64
	// last is the outcome of the most recent draw that landed on this
	// cell: the loop stores it through the pointer it already holds, so
	// recording a node's outcome costs one byte store and no extra load.
	last uint8
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

// Draws samples failure configurations — one Bernoulli shock per domain,
// then one correct / crashed / Byzantine outcome per node from its base
// or, if its domain shocked, elevated profile — under a tilt, with each
// sample's log likelihood ratio. It is the one place a shock or a node
// outcome is drawn (see the package comment). A Draws is a workspace:
// Reset it, then Next rewrites its scratch; one goroutine at a time.
//
// nodes holds a bank of n base cells and a bank of n shock-elevated
// cells; node i reads bank fired[slot[i]], where slot 0 is the
// never-firing "no domain" entry and slot d+1 belongs to domain d.
type Draws struct {
	shocks []cell
	nodes  []cell
	slot   []int
	fired  []int // 0 or 1, rewritten every sample
}

// Reset builds the tables for a fleet: profiles[i] is node i's true
// profile, member[i] the index into domains of its failure domain or -1,
// and tilt the proposal (the zero TriTilt draws from the true measure).
func (d *Draws) Reset(profiles []faultcurve.Profile, member []int, domains []faultcurve.Domain, tilt TriTilt) error {
	n := len(profiles)
	if len(member) != n {
		return fmt.Errorf("montecarlo: %d memberships for %d nodes", len(member), n)
	}
	for i, m := range member {
		if m < -1 || m >= len(domains) {
			return fmt.Errorf("montecarlo: node %d references domain %d of %d", i, m, len(domains))
		}
	}
	// A NaN fails every comparison; refuse it rather than read it as "no tilt".
	if math.IsNaN(tilt.Boost) {
		return fmt.Errorf("montecarlo: node tilt boost %v is not a number", tilt.Boost)
	}
	if !(tilt.ShockProb >= 0 && tilt.ShockProb < 1) {
		return fmt.Errorf("montecarlo: shock tilt %v out of [0, 1)", tilt.ShockProb)
	}
	if tilt.Boost < 1 {
		tilt.Boost = 1
	}
	d.shocks = make([]cell, len(domains))
	d.nodes = make([]cell, 2*n)
	d.slot = make([]int, n)
	d.fired = make([]int, len(domains)+1)
	for k, dom := range domains {
		q := dom.ShockProb
		qt := q
		if tilt.ShockProb > 0 && q > 0 && q < 1 {
			qt = tilt.ShockProb
		}
		d.shocks[k] = coinCell(q, qt)
	}
	for i, p := range profiles {
		d.nodes[i] = triCell(p.PCrash, p.PByz, tilt.Boost)
		if m := member[i]; m >= 0 {
			d.slot[i] = m + 1
			e := domains[m].Elevate(p)
			d.nodes[n+i] = triCell(e.PCrash, e.PByz, tilt.Boost)
		}
	}
	return nil
}

// Next draws one configuration from rng — one Float64 per domain in
// order, then one per node in order — and returns its fault counts and
// log likelihood ratio, accumulated in draw order.
func (d *Draws) Next(rng *rand.Rand) (crashed, byz int, logW float64) {
	for k := range d.shocks {
		c := &d.shocks[k]
		o := c.pick(rng.Float64())
		d.fired[k+1] = o >> 1
		logW += c.inc[o]
	}
	n := len(d.slot)
	for i, s := range d.slot {
		c := &d.nodes[d.fired[s]*n+i]
		o := c.pick(rng.Float64())
		c.last = uint8(o)
		crashed += o >> 1
		byz += o & 1
		logW += c.inc[o]
	}
	return crashed, byz, logW
}

// Node reports whether node i crashed or turned Byzantine in the last
// draw (never both): the outcome recorded on the cell that draw used,
// which the shock states it left in fired still select.
func (d *Draws) Node(i int) (crashed, byz bool) {
	o := d.nodes[d.fired[d.slot[i]]*len(d.slot)+i].last
	return o == 2, o == 1
}

// estimate runs the sample loop: seeds the generator, draws samples
// configurations, and averages the likelihood-ratio weights of those
// hit accepts.
func (d *Draws) estimate(samples int, seed int64, hit TriPred) ImportanceEstimate {
	rng := rand.New(rand.NewSource(seed))
	var sumW, sumW2 float64
	for s := 0; s < samples; s++ {
		crashed, byz, logW := d.Next(rng)
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
