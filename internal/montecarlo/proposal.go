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
// draw, two integer compares and one byte store per coin, and, only for
// a sample the caller keeps, one table read and one add per coin.
//
// A coin is a node in one shock state, or one domain's shock. A draw x
// (a 63-bit integer that stands for the uniform x / 2^63) lands on
// outcome 2 (crashed) when x < t[0], on 1 (Byzantine) when
// t[0] <= x < t[1] and on 0 (correct) otherwise: the outcome is the
// number of thresholds above the draw. A shock has one threshold and
// fires, outcome 2, below it.

// bounds are a node's two thresholds in one shock state, in draw units,
// t[0] <= t[1].
type bounds [2]int64

// incs are one coin's log-weight increments, indexed by outcome code:
// the outcome, plus 3 when the node's domain fired (the elevated
// profile's increments). Codes stop at 5; the array is 8 long so that
// code&7 indexes it with no bounds check.
type incs [8]float64

// batch is how many accepted samples are priced together, and the number
// of add chains price interleaves: four independent chains overlap in the
// floating-point adder where one chain waits out each add's latency.
const batch = 4

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

// triCoin is the coin of a node with true crash/Byzantine probabilities
// pc, pb under boost: the tilted mass is clamped to [true mass,
// MaxTiltMass], preserving the crash/Byzantine split. It returns the
// thresholds and writes the increments of outcomes 0, 1 and 2 into inc.
func triCoin(pc, pb, boost float64, inc []float64) bounds {
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
	t := bounds{threshold(tc), threshold(tc + tb)}
	if t[1] < t[0] {
		t[1] = t[0]
	}
	inc[2] = math.Log(pc) - math.Log(tc)
	inc[1] = math.Log(pb) - math.Log(tb)
	inc[0] = math.Log1p(-f) - math.Log1p(-(tc + tb))
	return t
}

// Draws samples failure configurations — one Bernoulli shock per domain,
// then one correct / crashed / Byzantine outcome per node from its base
// or, if its domain shocked, elevated profile — under a tilt, and prices
// them with their log likelihood ratios. It is the one place a shock or
// a node outcome is drawn (see the package comment). A Draws is a
// workspace: Reset it, then Next rewrites its scratch; one goroutine at a
// time.
//
// The tables are flat slices by coin state. Coin j is domain j's shock
// for j < len(shocks) and node j − len(shocks) after; a sample writes
// one outcome code per coin into a row of rows. Node i reads its
// thresholds at bank[slot[i]]·n + i, where slot 0 is the never-firing
// "no domain" entry and slot d+1 belongs to domain d.
type Draws struct {
	shocks []int64  // domain k's shock fires on a draw below shocks[k]
	nodes  []bounds // base bank at [0, n), shock-elevated bank at [n, 2n)
	inc    []incs   // by coin
	slot   []int
	bank   []int    // 0 or 1 by slot, rewritten every sample
	rows   []uint8  // batch rows of one outcome code per coin; Next writes row 0
	xs     []uint64 // one sample's draws when they cannot be read in place

	// estimate's state: rows accepted and not yet priced, and the sums
	// of the weights priced so far.
	pending     int
	sumW, sumW2 float64
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
	coins := len(domains) + n
	d.shocks = make([]int64, len(domains))
	d.nodes = make([]bounds, 2*n)
	d.inc = make([]incs, coins)
	d.slot = make([]int, n)
	d.bank = make([]int, len(domains)+1)
	d.rows = make([]uint8, batch*coins)
	d.xs = make([]uint64, coins)
	for k, dom := range domains {
		q := dom.ShockProb
		qt := q
		if tilt.ShockProb > 0 && q > 0 && q < 1 {
			qt = tilt.ShockProb
		}
		d.shocks[k] = threshold(qt)
		d.inc[k][2] = math.Log(q) - math.Log(qt)
		d.inc[k][0] = math.Log1p(-q) - math.Log1p(-qt)
	}
	for i, p := range profiles {
		inc := &d.inc[len(domains)+i]
		d.nodes[i] = triCoin(p.PCrash, p.PByz, tilt.Boost, inc[0:3])
		if m := member[i]; m >= 0 {
			d.slot[i] = m + 1
			e := domains[m].Elevate(p)
			d.nodes[n+i] = triCoin(e.PCrash, e.PByz, tilt.Boost, inc[3:6])
		}
	}
	return nil
}

// Next draws one configuration from s — one draw per domain in order,
// then one per node in order — records each outcome for Node, and
// returns the configuration's fault counts.
func (d *Draws) Next(s *Stream) (crashed, byz int) {
	return d.next(s, d.rows[:len(d.inc)])
}

// next draws one configuration from s into row.
//
// The draws are read in place from the stream's block whenever the
// sample fits in what is left of it; a sample that straddles two blocks,
// or meets a value rand.Float64 would skip, is drawn again from a copy
// that Stream.read has stitched and cleaned.
func (d *Draws) next(s *Stream, row []uint8) (crashed, byz int) {
	if xs := s.view(len(d.xs)); xs != nil {
		if crashed, byz, ok := d.take(xs, row); ok {
			s.pos += len(xs)
			return crashed, byz
		}
	}
	s.read(d.xs)
	crashed, byz, _ = d.take(d.xs, row)
	return crashed, byz
}

// take runs one sample on the raw outputs xs, one per coin, writing its
// outcome codes into row; ok is false when one of the outputs is a value
// rand.Float64 skips (the sample is then void, and is drawn again into
// the same row).
//
// Each outcome is taken without a branch: both operands of x − t are in
// [0, 2^63), so the subtraction cannot overflow and its sign bit is
// exactly "x is below t". A three-way switch would mispredict on nearly
// every node, because the tilt drives each node's failure mass to
// MaxTiltMass — a coin flip.
func (d *Draws) take(xs []uint64, row []uint8) (crashed, byz int, ok bool) {
	shocks, bank := d.shocks, d.bank
	n := len(d.slot)
	xs, row = xs[:len(shocks)+n], row[:len(shocks)+n]
	// x + (2^63 - resampleAt) wraps negative exactly when x must be
	// skipped; or-ing them all leaves one sign bit to test per sample.
	var skip int64
	failed := 0
	if len(shocks) == 0 {
		// No domain, no shock: every node is on the base bank, and the
		// loop needs no bank lookup.
		nodes := d.nodes[:len(xs)]
		for i, v := range xs {
			x := int64(v &^ (1 << 63))
			skip |= x + (1<<63 - resampleAt)
			crash := int(uint64(x-nodes[i][0]) >> 63)
			fail := int(uint64(x-nodes[i][1]) >> 63)
			row[i] = uint8(crash + fail)
			crashed += crash
			failed += fail
		}
		return crashed, failed - crashed, skip >= 0
	}
	for k, t := range shocks {
		x := int64(xs[k] &^ (1 << 63))
		skip |= x + (1<<63 - resampleAt)
		fire := int(uint64(x-t) >> 63)
		bank[k+1] = fire
		row[k] = uint8(2 * fire)
	}
	xs, row = xs[len(shocks):], row[len(shocks):]
	nodes, slot := d.nodes, d.slot[:len(xs)]
	for i, v := range xs {
		x := int64(v &^ (1 << 63))
		skip |= x + (1<<63 - resampleAt)
		b := bank[slot[i]]
		t := &nodes[b*n+i]
		crash := int(uint64(x-t[0]) >> 63)
		fail := int(uint64(x-t[1]) >> 63)
		row[i] = uint8(crash + fail + 3*b)
		crashed += crash
		failed += fail
	}
	return crashed, failed - crashed, skip >= 0
}

// Node reports whether node i crashed or turned Byzantine in the last
// draw Next made (never both).
func (d *Draws) Node(i int) (crashed, byz bool) {
	o := d.rows[len(d.shocks)+i] % 3
	return o == 2, o == 1
}

// estimate runs the sample loop: draws samples configurations from s
// and averages the likelihood-ratio weights of those hit accepts. Only
// those are priced: the counts decide hit, and a miss weighs nothing.
// Accepted rows wait in rows until batch of them are pending; the last
// few are priced one at a time.
func (d *Draws) estimate(samples int, s *Stream, hit TriPred) ImportanceEstimate {
	d.pending, d.sumW, d.sumW2 = 0, 0, 0
	m := len(d.inc)
	for k := 0; k < samples; k++ {
		if k = d.block(s, hit, k, samples); k == samples {
			break
		}
		d.accept(hit(d.next(s, d.rows[d.pending*m:][:m])))
	}
	for q := 0; q < d.pending; q++ {
		d.add(d.logW(d.rows[q*m:][:m]))
	}
	nf := float64(samples)
	mean := d.sumW / nf
	variance := d.sumW2/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	ess := 0.0
	if d.sumW2 > 0 {
		ess = d.sumW * d.sumW / d.sumW2
	}
	return ImportanceEstimate{
		P:                mean,
		StdErr:           math.Sqrt(variance / nf),
		Samples:          samples,
		EffectiveSamples: ess,
	}
}

// block draws samples k, k+1, … in place from the stream's current
// block, as many as fit whole in what is left of it, each into the next
// free pending row, and returns the first sample it did not draw:
// samples, the one that straddles the block's end, or one that meets a
// value rand.Float64 skips. estimate draws that one through next. Each
// sample costs one call to take and one to the predicate: take's loop
// written into this one ran slower, its registers spilling under the
// outer loop's.
func (d *Draws) block(s *Stream, hit TriPred, k, samples int) int {
	m := len(d.xs)
	if s.pos == streamLen {
		s.refill()
	}
	for ; k < samples && m <= streamLen-s.pos; k++ {
		crashed, byz, ok := d.take(s.buf[s.pos:][:m], d.rows[d.pending*m:][:m])
		if !ok {
			break
		}
		s.pos += m
		d.accept(hit(crashed, byz))
	}
	return k
}

// accept keeps the row just drawn when the predicate took its sample:
// the pending count advances by the verdict, 0 or 1, with no branch, so
// a rejected row is overwritten by the next sample. A full batch is
// priced.
func (d *Draws) accept(hit bool) {
	step := 0
	if hit {
		step = 1
	}
	d.pending += step
	if d.pending == batch {
		d.price()
	}
}

// price sums the log-weights of the batch pending rows as four
// interleaved chains, each adding its row's increments in draw order —
// shocks by index, then nodes by index, as the per-draw loop added them
// — and adds their weights to the sums in sample order. No sum is
// reassociated.
func (d *Draws) price() {
	inc := d.inc
	m := len(inc)
	r0, r1, r2, r3 := d.rows[:m], d.rows[m:][:m], d.rows[2*m:][:m], d.rows[3*m:][:m]
	var w0, w1, w2, w3 float64
	for j := range inc {
		t := &inc[j]
		w0 += t[r0[j]&7]
		w1 += t[r1[j]&7]
		w2 += t[r2[j]&7]
		w3 += t[r3[j]&7]
	}
	d.add(w0)
	d.add(w1)
	d.add(w2)
	d.add(w3)
	d.pending = 0
}

// logW is one row's log-weight, summed as price sums each of its chains.
func (d *Draws) logW(row []uint8) (w float64) {
	inc := d.inc[:len(row)]
	for j, c := range row {
		w += inc[j][c&7]
	}
	return w
}

// add adds the weight exp(logW) of one accepted sample to the sums.
func (d *Draws) add(logW float64) {
	w := math.Exp(logW)
	d.sumW += w
	d.sumW2 += w * w
}
