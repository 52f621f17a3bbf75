package dist

import "fmt"

// This file is the algebra the correlated failure-domain engine
// (internal/core.AnalyzeDomains) builds on. Every table it combines is a
// RegionPass laid out for the whole fleet (ResetGroup). A domain's shock
// makes its counts a mixture of a base and an elevated fold, and mixing is
// linear, so a running table T passes through a domain as
//
//	T ← (1 − s)·fold(T, base members) + s·fold(T, elevated members),
//
// forward for count tables (Fold) and backward for failure tables
// (FoldBack), whose cell x of region r holds P[x + Y ∉ r] for the group Y
// folded in. Truncation stays exact both ways: a region is down-closed, a
// fold only moves mass up, and a backward fold reads a cell past the
// region as certain failure. Dot reads a count table against failure
// tables. For Raft and textbook PBFT every region is a row, so each
// operation is 1-D (DESIGN.md "Count regions").

// Mix sets rp to the convex mixture wa·a + wb·b of two tables of one
// layout: the tables of a group whose nodes follow a with probability wa
// and b with probability wb. rp may be a or b; Mix(a, a, 1, 0) copies a
// bit for bit.
func (rp *RegionPass) Mix(a, b *RegionPass, wa, wb float64) {
	for i := range rp.tabs {
		rp.tabs[i].mix(&a.tabs[i], &b.tabs[i], wa, wb)
	}
}

// Set makes rp a copy of src, bit for bit as Mix(src, src, 1, 0), by
// copying src's live cells and extents: the cells rp held past them are
// cleared, and its buffers are relaid only when src's layout differs.
func (rp *RegionPass) Set(src *RegionPass) {
	for i := range rp.tabs {
		rp.tabs[i].set(&src.tabs[i])
	}
}

func (t *regionTable) set(a *regionTable) {
	if t.shape != a.shape || t.w != a.w || len(t.hi) != len(a.hi) {
		t.shapeAs(a)
	}
	for c, h := range a.hi {
		o := c * a.w
		if t.hi[c] > h {
			clear(t.p[o+h : o+t.hi[c]])
		}
		copy(t.p[o:o+h], a.p[o:o+h])
	}
	copy(t.hi, a.hi)
}

// ResetFailure lays rp out as ResetGroup(nil, regions, n) does, every cell
// 0: the failure tables of an empty group, which leaves no region.
func (rp *RegionPass) ResetFailure(regions [3]Region, n int) {
	for i := range rp.tabs {
		rp.tabs[i].resize(regions[i], n)
	}
}

// FoldBack folds nodes Z backward into failure tables in place: a cell x
// of region r that held P[x + Y ∉ r] holds P[x + Y + Z ∉ r], each node
// moving it onto its neighbours, and a neighbour past r counting as 1.
func (rp *RegionPass) FoldBack(nodes []TriState) {
	for _, node := range nodes {
		pc, pb, pok := clampTri(node)
		for i := range rp.tabs {
			t := &rp.tabs[i]
			t.foldBack(t.p, pc, pb, pok, 1)
		}
	}
	for i := range rp.tabs {
		rp.tabs[i].trim()
	}
}

// Dot returns Σ_x rp[x]·g[x] over rp's cells in region i, compensated and
// unclamped: with g the failure tables of a group independent of rp's, the
// mass of rp's group in region i from which the union leaves it, so the
// union's mass in the region is rp.Mass(i) − rp.Dot(g, i).
func (rp *RegionPass) Dot(g *RegionPass, i int) float64 {
	t, u := &rp.tabs[i], &g.tabs[i]
	mustShareLayout(t, u)
	var s KahanSum
	for b, h := range t.hi {
		o := b * t.w
		for k, v := range t.p[o : o+h] {
			s.Add(v * u.p[o+k])
		}
	}
	return s.Sum()
}

// mustShareLayout panics unless a and b are laid out alike: the operands of
// one fleet's algebra always are, whatever their groups.
func mustShareLayout(a, b *regionTable) {
	if a.shape != b.shape || a.w != b.w || len(a.hi) != len(b.hi) {
		panic(fmt.Sprintf("dist: region tables of different layouts (shape %d, %d×%d vs shape %d, %d×%d)",
			a.shape, len(a.hi), a.w, b.shape, len(b.hi), b.w))
	}
}

func (t *regionTable) mix(a, b *regionTable, wa, wb float64) {
	mustShareLayout(a, b)
	if t != a && t != b {
		t.shapeAs(a)
	}
	for c := range a.hi {
		h, o := max(a.hi[c], b.hi[c]), c*a.w
		ra, rb, out := a.p[o:o+h], b.p[o:o+h], t.p[o:o+h]
		for k := range out {
			out[k] = flush(wa*ra[k] + wb*rb[k])
		}
		for h > 0 && out[h-1] == 0 {
			h--
		}
		t.hi[c] = h
	}
}

// trim sets every column's live length to its last nonzero cell, after a
// backward fold wrote whole columns (column b holds c + b <= Faulty).
func (t *regionTable) trim() {
	for b := range t.hi {
		h := t.w - b
		for h > 0 && t.p[b*t.w+h-1] == 0 {
			h--
		}
		t.hi[b] = h
	}
}

// liveCols returns how many of t's leading columns hold mass; every column
// past them is all 0.
func (t *regionTable) liveCols() int {
	n := len(t.hi)
	for n > 0 && t.hi[n-1] == 0 {
		n--
	}
	return n
}
