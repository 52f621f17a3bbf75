package montecarlo

import (
	"fmt"
	"math"

	"repro/internal/faultcurve"
)

// The sampler kernel. A Draws holds everything about a run that does not
// depend on the random draws — for every coin the run can flip, the
// cumulative thresholds the draw is compared against and the
// log-likelihood-ratio increment of each outcome — so a sample is one
// draw and two integer compares per coin, and, only for a sample the
// caller keeps, one table read and one add per coin.

// cell is one coin of the proposal: a node in one shock state, or one
// domain's shock. A draw x (a 63-bit integer that stands for the uniform
// x / 2^63) lands on outcome 2 (crashed) when x < t0, on 1 (Byzantine)
// when t0 <= x < t1 and on 0 (correct) otherwise — the outcome index is
// the number of thresholds above the draw — and its log-weight
// increment is inc[outcome]. Two-outcome coins have t0 == t1, so outcome
// 1 never comes up.
type cell struct {
	t0, t1 int64 // thresholds in draw units, t0 <= t1
	inc    [3]float64
	// last is the outcome of the most recent draw that landed on this
	// cell: the loop stores it through the pointer it already holds, so
	// recording a node's outcome costs one byte store and no extra load.
	last uint8
}

// threshold returns the number of draws x whose uniform float64(x) / 2^63
// — rand.Float64's value — is below t: those are exactly x < threshold(t),
// because the conversion is monotone. A t no uniform is below — 0, -0, a
// negative, NaN — gives 0 and a t every uniform is below gives
// resampleAt, so the draw-time compare is between non-negative integers.
func threshold(t float64) int64 {
	lo, hi := int64(0), int64(resampleAt)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// pick draws x on the coin without a branch and records the outcome:
// crash is 1 when x < t0, fail when x < t1 (crashed or Byzantine, as
// t0 <= t1). Both operands of each subtraction are in [0, 2^63), so it
// cannot overflow and its sign bit is exactly "x is below the
// threshold". The obvious three-way switch mispredicts on nearly every
// node, because the tilt drives each node's failure mass to MaxTiltMass
// — a coin flip.
func (c *cell) pick(x int64) (crash, fail int) {
	crash = int(uint64(x-c.t0) >> 63)
	fail = int(uint64(x-c.t1) >> 63)
	c.last = uint8(crash + fail)
	return crash, fail
}

// Draws samples failure configurations — one Bernoulli shock per domain,
// then one correct / crashed / Byzantine outcome per node from its base
// or, if its domain shocked, elevated profile — under a tilt, and prices
// each with its log likelihood ratio on demand. It is the one place a
// shock or a node outcome is drawn (see the package comment). A Draws is
// a workspace: Reset it, then Next rewrites its scratch; one goroutine at
// a time.
//
// nodes holds a bank of n base cells and a bank of n shock-elevated
// cells; node i reads cell fired[slot[i]] + i, where slot 0 is the
// never-firing "no domain" entry and slot d+1 belongs to domain d.
type Draws struct {
	shocks []cell
	nodes  []cell
	slot   []int
	fired  []int    // 0 or n (the elevated bank), rewritten every sample
	xs     []uint64 // one sample's draws when they cannot be read in place
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
	d.xs = make([]uint64, len(domains)+n)
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

// Next draws one configuration from s — one draw per domain in order,
// then one per node in order — records each outcome on the cell it
// used, and returns the configuration's fault counts. LogW prices it.
//
// The draws are read in place from the stream's block whenever the
// sample fits in what is left of it; a sample that straddles two blocks,
// or meets a value rand.Float64 would skip, is drawn again from a copy
// that Stream.read has stitched and cleaned.
func (d *Draws) Next(s *Stream) (crashed, byz int) {
	if xs := s.view(len(d.xs)); xs != nil {
		if crashed, byz, ok := d.take(xs); ok {
			s.pos += len(xs)
			return crashed, byz
		}
	}
	s.read(d.xs)
	crashed, byz, _ = d.take(d.xs)
	return crashed, byz
}

// take runs one sample on the raw outputs xs, one per coin; ok is false
// when one of them is a value rand.Float64 skips (the sample is then
// void, and Next draws it again).
func (d *Draws) take(xs []uint64) (crashed, byz int, ok bool) {
	// x + (2^63 - resampleAt) wraps negative exactly when x must be
	// skipped; or-ing them all leaves one sign bit to test per sample.
	var skip int64
	shocks, fired := d.shocks, d.fired
	n := len(d.slot)
	xs = xs[:len(shocks)+n]
	for k := range shocks {
		x := int64(xs[k] &^ (1 << 63))
		skip |= x + (1<<63 - resampleAt)
		fire, _ := shocks[k].pick(x)
		fired[k+1] = fire * n
	}
	xs = xs[len(shocks):]
	failed := 0
	if len(shocks) == 0 {
		// No domain, no shock: every node is on the base bank, and the
		// loop needs no bank lookup.
		base := d.nodes[:len(xs)]
		for i, v := range xs {
			x := int64(v &^ (1 << 63))
			skip |= x + (1<<63 - resampleAt)
			crash, fail := base[i].pick(x)
			crashed += crash
			failed += fail
		}
	} else {
		nodes, slot := d.nodes, d.slot[:len(xs)]
		for i, v := range xs {
			x := int64(v &^ (1 << 63))
			skip |= x + (1<<63 - resampleAt)
			crash, fail := nodes[fired[slot[i]]+i].pick(x)
			crashed += crash
			failed += fail
		}
	}
	return crashed, failed - crashed, skip >= 0
}

// LogW returns the log likelihood ratio of the last draw: the recorded
// outcomes' increments summed in draw order, shocks by index, then nodes
// by index.
func (d *Draws) LogW() (logW float64) {
	for k := range d.shocks {
		c := &d.shocks[k]
		logW += c.inc[c.last]
	}
	for i, sl := range d.slot {
		c := &d.nodes[d.fired[sl]+i]
		logW += c.inc[c.last]
	}
	return logW
}

// Node reports whether node i crashed or turned Byzantine in the last
// draw (never both): the outcome recorded on the cell that draw used,
// which the shock states it left in fired still select.
func (d *Draws) Node(i int) (crashed, byz bool) {
	o := d.nodes[d.fired[d.slot[i]]+i].last
	return o == 2, o == 1
}

// estimate runs the sample loop: draws samples configurations from s
// and averages the likelihood-ratio weights of those hit accepts. Only
// those are priced: the counts decide hit, and a miss weighs nothing.
func (d *Draws) estimate(samples int, s *Stream, hit TriPred) ImportanceEstimate {
	var sumW, sumW2 float64
	for k := 0; k < samples; k++ {
		if hit(d.Next(s)) {
			w := math.Exp(d.LogW())
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
