package dist

// RegionLeaveOneOut is the leave-one-out over one count region: the fleet
// folded into r's truncated table, as RegionPass folds it, and per node i
// the mass the other nodes put on r's two edges, which the optimizer's
// gradient reads (DESIGN.md "Leave-one-out by forward and backward
// folds"). Reset keeps F_i, the table of the nodes before i, as it
// folds forward, then folds each edge's table E backward through the nodes
// after i: a row as E'[k] = stay·E[k] + move·E[k+1], the general table in
// place, b then c ascending, as
//
//	E'[b][c] = pok·E[b][c] + pc·E[b][c+1] + pb·E[b+1][c].
//
// Node i's edge is Σ F_i·E over F_i's live cells: every term is positive,
// however deep the tail. The workspace holds n·Cells(n, n) floats plus
// three tables (the fleet's and both edges'); warm, nothing allocates. Not
// safe for concurrent use.
type RegionLeaveOneOut struct {
	full  regionTable  // every node folded
	back  RegionEdges  // the two edge tables folded backward, in full's layout
	fwd   []float64    // F_0 … F_{n-1}, len(full.p) cells each
	fwdHi []int        // their live extents, len(full.hi) each
	edges [][2]float64 // node i's faulty and Byzantine edges
}

// RegionEdges are a region's two edge tables over a fleet, one after the
// other in the region table's layout: cell x holds P[x + Y on the faulty
// edge], then on the Byzantine edge, Y the nodes folded in backward (a cell
// past the region reads 0, so every term stays positive).
type RegionEdges struct {
	p []float64
}

// Mix sets e to wa·a + wb·b, tables of one layout; e may be a or b: a
// domain's shock mixes its two branches' tables.
func (e *RegionEdges) Mix(a, b *RegionEdges, wa, wb float64) {
	var grew bool
	e.p = resized(e.p, len(a.p), &grew)
	for i := range e.p {
		e.p[i] = flush(wa*a.p[i] + wb*b.p[i])
	}
}

// Reset folds nodes, a group of an n-node fleet, into r's table laid out
// for the fleet and reads each node's edges. With from and to nil the
// group is the whole fleet (n = len(nodes)). from, when not nil, holds the
// nodes before the group: count tables over the fleet's three regions, r
// the third (RegionPass); the fold starts from its table, and then extends
// a build, as Fold does, instead of being one, as RegionPass.Reset is. to,
// when not nil, holds the nodes after the group: the edges are read
// against its tables instead of the indicators.
func (l *RegionLeaveOneOut) Reset(nodes []TriState, r Region, n int, from *RegionPass, to *RegionEdges) {
	k, t := len(nodes), &l.full
	grew := t.reset(r, n)
	if from != nil {
		mustShareLayout(t, &from.tabs[2])
		t.mix(&from.tabs[2], &from.tabs[2], 1, 0)
	} else {
		jointBuilds.Add(1)
	}
	cells, cols := len(t.p), len(t.hi)
	l.back.p = resized(l.back.p, 2*cells, &grew)
	l.fwd = resized(l.fwd, k*cells, &grew)
	l.fwdHi = resized(l.fwdHi, k*cols, &grew)
	l.edges = resized(l.edges, k, &grew)
	if !grew {
		workspaceReuses.Add(1)
	}
	for i, node := range nodes {
		for b, h := range t.hi {
			l.fwdHi[i*cols+b] = h
			copy(l.fwd[i*cells+b*t.w:], t.p[b*t.w:b*t.w+h])
		}
		t.fold(clampTri(node))
	}
	// A row holds at most one edge: over c + b no Byzantine one, and a
	// faulty one only below n, as the other nodes number n-1; over b
	// (Faulty >= n) no faulty one. The general table holds both.
	ef, eb := l.back.p[:cells], l.back.p[cells:]
	if to != nil {
		if len(to.p) != len(l.back.p) {
			panic("dist: terminal edge tables of another layout")
		}
		copy(l.back.p, to.p)
	} else {
		clear(l.back.p)
		switch t.shape {
		case shapeFaulty:
			if r.Faulty < n {
				ef[r.Faulty] = 1
			}
		case shapeByz:
			eb[r.Byz] = 1
		case shapeGeneral:
			for b := range t.hi {
				ef[b*t.w+r.Faulty-b] = 1
			}
			for c := r.Byz * t.w; c < r.Byz*t.w+r.Faulty-r.Byz; c++ {
				eb[c] = 1
			}
		}
	}
	for i := k - 1; i >= 0; i-- {
		var f, bz float64
		for b, h := range l.fwdHi[i*cols : (i+1)*cols] {
			o := b * t.w
			for c, v := range l.fwd[i*cells+o : i*cells+o+h] {
				f += v * ef[o+c]
				bz += v * eb[o+c]
			}
		}
		l.edges[i] = [2]float64{f, bz}
		if i == 0 && from == nil && to == nil {
			break // a whole fleet has no use for Past
		}
		// A row folds only the edge it holds.
		pc, pb, pok := clampTri(nodes[i])
		if t.shape != shapeByz {
			t.foldBack(ef, pc, pb, pok, 0)
		}
		if t.shape != shapeFaulty {
			t.foldBack(eb, pc, pb, pok, 0)
		}
	}
}

// Past returns the last Reset's terminal edge tables folded back through
// its whole group (when from or to was given), owned by l until the next
// Reset.
func (l *RegionLeaveOneOut) Past() *RegionEdges { return &l.back }

// resized returns s at length n, reusing its buffer when that is large
// enough, and records in grew when it is not.
func resized[T any](s []T, n int, grew *bool) []T {
	if cap(s) < n {
		*grew = true
		return make([]T, n)
	}
	return s[:n]
}

// Mass returns the region's probability mass after the last Reset,
// bit-identical to RegionPass.Mass for the same region and nodes.
func (l *RegionLeaveOneOut) Mass() float64 { return l.full.mass() }

// Edges returns the mass the fleet without node i puts on the region's
// faulty edge {c + b = Faulty, b <= Byz} and on its Byzantine edge
// {b = Byz, c + b < Faulty}. An empty region has neither.
func (l *RegionLeaveOneOut) Edges(i int) (faulty, byz float64) {
	return l.edges[i][0], l.edges[i][1]
}

// foldBack folds one node backward into e, a table in t's layout, in
// place, the adjoint of fold: each cell becomes e's expectation over where
// the node moves it, a cell past the region reading out — 0 for an edge
// table, 1 for a failure table. out = 0 adds only zero terms.
func (t *regionTable) foldBack(e []float64, pc, pb, pok, out float64) {
	switch t.shape {
	case shapeFaulty:
		foldBackRow(e, pok, pc+pb, 0, out)
	case shapeByz:
		foldBackRow(e, 1-pb, pb, 0, out)
	case shapeGeneral:
		t.foldBackCols(e, pc, pb, pok, out)
	}
}

// foldBackCols folds one node backward into e, a general table, in place,
// b ascending: column b reads column b+1 before it is folded. A column's
// last cell, and the last column, move past the region.
func (t *regionTable) foldBackCols(e []float64, pc, pb, pok, out float64) {
	last := len(t.hi) - 1
	for b := 0; b < last; b++ {
		col := e[b*t.w : b*t.w+t.w-b] // c + b <= Faulty
		right := e[(b+1)*t.w : (b+1)*t.w+len(col)-1]
		for c, v := range right {
			col[c] = flush(col[c]*pok + col[c+1]*pc + v*pb)
		}
		col[len(right)] = flush(col[len(right)]*pok + (pc+pb)*out)
	}
	foldBackRow(e[last*t.w:last*t.w+t.w-last], pok, pc, pb, out)
}

// foldBackRow folds one node backward into a count row in place,
//
//	row[k] = row[k]·stay + row[k+1]·move + side·out,
//
// ascending, so row[k+1] is read before it is folded; side is the mass the
// node moves off the row, and a move past its last cell reads out too.
func foldBackRow(row []float64, stay, move, side, out float64) {
	last, leave := len(row)-1, side*out
	for k := 0; k < last; k++ {
		row[k] = flush(row[k]*stay + row[k+1]*move + leave)
	}
	row[last] = flush(row[last]*stay + (move+side)*out)
}
