package dist

import (
	"slices"

	"repro/internal/obs"
)

// RegionLeaveOneOut is the leave-one-out over one count region: the fleet
// folded into r's truncated table, as RegionPass folds it, and per node i
// the mass the other nodes put on r's two edges, which the optimizer's
// gradient reads (DESIGN.md "Count regions"). Node i comes back out of the
// table by forward substitution, c ascending, one row or column at a time,
//
//	r₋ᵢ[k] = (r[k] − r₋ᵢ[k−1]·move − left₋ᵢ[k]·pb) / stay,
//
// left being the column before in the general shape. The same substitution
// with move and pb negated sums the magnitudes each cell was formed from, a
// bound on its round-off. A deflation stands while stay >= looMinStay and
// that bound is within looMaxAmp of both edges; otherwise, as in a deep
// tail reached mostly through node i's own failure, Edges re-folds the
// other nodes. Warm, nothing allocates. Not safe for concurrent use.
type RegionLeaveOneOut struct {
	nodes          []TriState
	r              Region
	full, loo, amp regionTable // loo: full without node i; amp: loo's bound
}

// looDeflations and looRebuilds count Edges answered by deflation and by
// re-folding, one or the other per gradient coordinate.
var (
	looDeflations = obs.Default().Counter("probcons_engine_loo_deflations_total",
		"Leave-one-out region tables obtained by deflating one node out of the fleet's truncated safe-and-live table (one per analytic gradient coordinate).", nil)
	looRebuilds = obs.Default().Counter("probcons_engine_loo_rebuilds_total",
		"Leave-one-out region tables re-folded from the other nodes (stay share below 0.75, or a deflation whose error bound exceeds 1024x the edge).", nil)
)

const (
	looMinStay = 0.75 // least stay share a deflation divides by
	looMaxAmp  = 1024 // largest error bound a deflation keeps, over the edge
)

// Reset folds the nodes into r's truncated table. It is one from-scratch
// DP over the fleet, counted like RegionPass.Reset.
func (l *RegionLeaveOneOut) Reset(nodes []TriState, r Region) {
	jointBuilds.Add(1)
	l.nodes, l.r = append(l.nodes[:0], nodes...), r
	if !l.full.reset(r, len(nodes)) {
		workspaceReuses.Add(1)
	}
	for _, t := range nodes {
		l.full.fold(clampTri(t))
	}
	if l.amp.shape != l.full.shape || l.amp.w != l.full.w || !slices.Equal(l.amp.hi, l.full.hi) {
		l.shapeLike(&l.loo)
		l.shapeLike(&l.amp)
	}
}

// shapeLike gives t full's shape and live extents, every cell past them 0,
// for deflations to overwrite; Reset skips it while that layout holds.
func (l *RegionLeaveOneOut) shapeLike(t *regionTable) {
	t.resize(l.r, len(l.nodes))
	copy(t.hi, l.full.hi)
}

// Mass returns the region's probability mass after the last Reset,
// bit-identical to RegionPass.Mass for the same region and nodes.
func (l *RegionLeaveOneOut) Mass() float64 { return l.full.mass() }

// Edges returns the mass the fleet without node i puts on the region's
// faulty edge {c + b = Faulty, b <= Byz} and on its Byzantine edge
// {b = Byz, c + b < Faulty}. An empty region has neither.
func (l *RegionLeaveOneOut) Edges(i int) (faulty, byz float64) {
	pc, pb, pok := clampTri(l.nodes[i])
	stay, move := pok, pc+pb // the row over c + b
	switch l.full.shape {
	case shapeByz:
		stay, move = 1-pb, pb
	case shapeGeneral:
		move = pc
	}
	n, t, e := len(l.nodes), &l.loo, &l.amp
	if stay >= looMinStay {
		for b, h := range t.hi {
			o := b * t.w
			var left, ampLeft []float64
			if b > 0 {
				left, ampLeft = t.p[o-t.w:o], e.p[o-t.w:o]
			}
			unfold(t.p[o:], e.p[o:], l.full.p[o:o+h], left, ampLeft, stay, move, pb)
		}
		f, bz, ef, eb := t.edges(l.r, n, e.p)
		if ef <= looMaxAmp*f && eb <= looMaxAmp*bz {
			looDeflations.Add(1)
			return f, bz
		}
	}
	looRebuilds.Add(1)
	jointBuilds.Add(1)
	t.reset(l.r, n) // full's shape, so edges reads it alike
	for j, node := range l.nodes {
		if j != i {
			t.fold(clampTri(node))
		}
	}
	faulty, byz, _, _ = t.edges(l.r, n, t.p)
	l.shapeLike(t)
	return faulty, byz
}

// edges reads region r's two edges off a table of n-1 nodes shaped for n,
// and off amp, a second table of its layout. Cells past n-1 nodes hold
// nothing, and only the faulty edge can lie there: a row over b has
// Faulty >= n, so no faulty edge, and Byz < n.
func (t *regionTable) edges(r Region, n int, amp []float64) (faulty, byz, ampF, ampB float64) {
	switch t.shape {
	case shapeFaulty: // Byz >= Faulty, or both past n-1: no Byzantine edge
		if r.Faulty < n {
			faulty, ampF = t.p[r.Faulty], amp[r.Faulty]
		}
	case shapeByz:
		byz, ampB = t.p[r.Byz], amp[r.Byz]
	case shapeGeneral: // Byz < Faulty < n
		for b := r.Byz; b >= 0; b-- { // c ascending
			faulty += t.p[b*t.w+r.Faulty-b]
			ampF += amp[b*t.w+r.Faulty-b]
		}
		for c := r.Byz * t.w; c < r.Byz*t.w+r.Faulty-r.Byz; c++ {
			byz += t.p[c]
			ampB += amp[c]
		}
	}
	return faulty, byz, ampF, ampB
}

// unfold inverts one fold of a row or column, src, into dst, and its
// round-off bound into amp. left and ampLeft are the column before (nil
// for a row), whose cells moved in with share side.
func unfold(dst, amp, src, left, ampLeft []float64, stay, move, side float64) {
	x, a, inv := 0.0, 0.0, 1/stay
	for k, v := range src {
		var lx, la float64
		if left != nil {
			lx, la = left[k], ampLeft[k]
		}
		x = (v - lx*side - x*move) / stay
		a = (v + la*side + a*move) * inv
		dst[k], amp[k] = x, a
	}
}
