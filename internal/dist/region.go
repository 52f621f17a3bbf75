package dist

// Region is a count region over a fleet's (#crashed, #Byzantine) outcomes,
//
//	{(c, b) : b <= Byz, c + b <= Faulty},
//
// at most Byz Byzantine nodes and at most Faulty faulty (crashed or
// Byzantine) nodes in all. Every safety and liveness condition of the
// paper's Theorems 3.1 and 3.2 is one (core.CountModel.Regions), and so is
// their conjunction: two regions intersect in their componentwise minimum.
// A negative bound makes the region empty.
type Region struct {
	Byz, Faulty int
}

// Holds reports whether the outcome (crashed, byz) lies in the region.
func (r Region) Holds(crashed, byz int) bool {
	return byz <= r.Byz && crashed+byz <= r.Faulty
}

// Intersect returns the region of outcomes in both r and o.
func (r Region) Intersect(o Region) Region {
	return Region{Byz: min(r.Byz, o.Byz), Faulty: min(r.Faulty, o.Faulty)}
}

// RegionPass is the count-region kernel: one pass over a fleet of
// independent tri-state nodes that leaves P[(C, B) ∈ r] for each of three
// regions — a model's safe, live and safe-and-live sets — without building
// the joint table. Each region keeps its own table, truncated to the
// region. Truncation is exact: a region is down-closed and a fold only
// moves mass to higher counts, so no cell outside the region ever feeds
// one inside. Cells below τ are flushed (flushBelow).
//
// With both bounds clipped to the fleet size n, a region's table takes one
// of three shapes (DESIGN.md "Count regions"), and a pass costs n folds of
// at most its O((Byz+1)·(Faulty+1)) cells:
//
//   - Byz >= Faulty: the Byzantine bound is implied, so Byzantine mass
//     joins crash mass — one row over c + b, truncated at Faulty;
//   - Faulty >= n: the faulty bound is vacuous, so crash mass joins correct
//     mass — one row over b, truncated at Byz;
//   - otherwise the general table, one column over c per b <= Byz, each
//     truncated at c + b <= Faulty. With Byz = 0 that is again one row.
//
// A RegionPass over part of a fleet (ResetGroup) holds that group's
// tables in the fleet's layout; mixture.go mixes such tables and folds
// failure tables backward. The zero value is ready; buffers are reused, so
// a warm RegionPass folds and mixes without allocating. Not safe for
// concurrent use.
type RegionPass struct {
	tabs [3]regionTable
}

// regionTable is one region's truncated table: cols columns of stride
// len(p)/cols, column b holding P[C = c, B = b] (general shape) or one row
// holding P[C + B = k] or P[B = k] (cols == 1). hi[b] is column b's live
// length; every cell past it is exactly 0. JointCrashByz is the general
// shape laid over the whole triangle.
type regionTable struct {
	shape regionShape
	p     []float64
	hi    []int
	w     int // column stride
}

type regionShape int

const (
	shapeEmpty   regionShape = iota
	shapeFaulty              // one row over c + b
	shapeByz                 // one row over b
	shapeGeneral             // one column over c per b
)

// Reset folds the nodes into the three regions' tables: ResetGroup over
// the whole fleet. Like JointCrashByz.Reset it is one from-scratch DP over
// the fleet and counts as one on probcons_engine_joint_builds_total.
func (rp *RegionPass) Reset(nodes []TriState, regions [3]Region) {
	rp.ResetGroup(nodes, regions, len(nodes))
}

// ResetGroup folds a group of nodes, part of a fleet of n nodes, into the
// three regions' tables laid out as Reset lays out an n-node fleet's:
// tables of one fleet's groups share their layout, which Mix, Dot and the
// failure tables (ResetFailure) require. It counts as one from-scratch DP,
// like Reset.
func (rp *RegionPass) ResetGroup(nodes []TriState, regions [3]Region, n int) {
	jointBuilds.Add(1)
	grew := false
	for i := range rp.tabs {
		grew = rp.tabs[i].reset(regions[i], n) || grew
	}
	if !grew {
		workspaceReuses.Add(1)
	}
	rp.Fold(nodes)
}

// Fold folds more nodes into rp's tables in place: ResetGroup(a) then
// Fold(b) is ResetGroup(a ++ b), bit for bit. It extends a build rather
// than starting one, so it is not counted as one. Nodes go in pairs, each
// pair through a row in one sweep (fold2); an odd last one alone.
func (rp *RegionPass) Fold(nodes []TriState) {
	for ; len(nodes) >= 2; nodes = nodes[2:] {
		pc1, pb1, pok1 := clampTri(nodes[0])
		pc2, pb2, pok2 := clampTri(nodes[1])
		for i := range rp.tabs {
			rp.tabs[i].fold2(pc1, pb1, pok1, pc2, pb2, pok2)
		}
	}
	if len(nodes) == 1 {
		pc, pb, pok := clampTri(nodes[0])
		for i := range rp.tabs {
			rp.tabs[i].fold(pc, pb, pok)
		}
	}
}

// Mass returns the probability mass of region i's table, compensated and
// clamped: the group's mass in the region, whether the table was folded or
// mixed.
func (rp *RegionPass) Mass(i int) float64 { return rp.tabs[i].mass() }

func (t *regionTable) mass() float64 {
	var s KahanSum
	for b, h := range t.hi {
		for _, v := range t.p[b*t.w : b*t.w+h] {
			s.Add(v)
		}
	}
	return Clamp01(s.Sum())
}

// reset shapes the table for region r over n nodes, all mass on no faults.
// It reports whether a buffer had to grow.
func (t *regionTable) reset(r Region, n int) (grew bool) {
	grew = t.resize(r, n)
	if len(t.hi) > 0 {
		t.p[0], t.hi[0] = 1, 1
	}
	return grew
}

// resize shapes the table for region r over n nodes, every cell 0.
func (t *regionTable) resize(r Region, n int) (grew bool) {
	return t.size(r.layout(n))
}

// layout returns the shape of r's table over a fleet of n nodes: cols
// columns of stride w.
func (r Region) layout(n int) (shape regionShape, w, cols int) {
	byz, faulty := min(r.Byz, n), min(r.Faulty, n)
	switch {
	case byz < 0 || faulty < 0:
		return shapeEmpty, 0, 0
	case byz >= faulty:
		return shapeFaulty, faulty + 1, 1
	case faulty >= n:
		return shapeByz, byz + 1, 1
	default:
		return shapeGeneral, faulty + 1, byz + 1
	}
}

// Cells returns how many cells of r's table over an n-node fleet a group
// of k of its nodes can reach: a row's first k+1 cells, or the box of the
// general table's columns b <= min(Byz, k), each to c + b <= min(Faulty,
// k). Cells(n, n) is the whole table, the most a fold, mixture or
// backward fold writes (DESIGN.md "Count regions").
func (r Region) Cells(n, k int) int {
	shape, w, cols := r.layout(n)
	switch shape {
	case shapeEmpty:
		return 0
	case shapeGeneral:
		return min(cols, k+1) * min(w, k+1)
	default:
		return min(w, k+1)
	}
}

// shapeAs gives t a's layout, every cell 0.
func (t *regionTable) shapeAs(a *regionTable) (grew bool) {
	return t.size(a.shape, a.w, len(a.hi))
}

// size lays t out as cols columns of stride w, every cell 0. It clears only
// what the previous occupant left live, and reports whether a buffer had
// to grow.
func (t *regionTable) size(shape regionShape, w, cols int) (grew bool) {
	for b, h := range t.hi {
		clear(t.p[b*t.w : b*t.w+h])
	}
	t.shape, t.w = shape, w
	need := cols * w
	if cap(t.p) < need {
		t.p, grew = make([]float64, need), true
	}
	t.p = t.p[:need]
	if cap(t.hi) < cols {
		t.hi, grew = make([]int, cols), true
	}
	t.hi = t.hi[:cols]
	clear(t.hi)
	return grew
}

// fold folds one node, with crash, Byzantine and correct probabilities
// pc, pb, pok, into the table.
func (t *regionTable) fold(pc, pb, pok float64) {
	if stay, move, ok := t.rowStep(pc, pb, pok); ok {
		t.hi[0] = foldRow(t.p[:t.w], t.hi[0], stay, move)
		return
	}
	if t.shape != shapeGeneral {
		return
	}
	// Descending b: column b reads column b-1 before it is folded.
	// Columns past the first dead one stay 0, so the fold starts there.
	for b := min(t.liveCols(), len(t.hi)-1); b > 0; b-- {
		col := t.p[b*t.w : b*t.w+t.w-b] // c + b <= Faulty
		left := t.p[(b-1)*t.w : b*t.w]
		t.hi[b] = foldCol(col, left, t.hi[b], t.hi[b-1], pc, pb, pok)
	}
	t.hi[0] = foldRow(t.p[:t.w], t.hi[0], pok, pc)
}

// fold2 folds two nodes into the table, fold(pc1, pb1, pok1) then
// fold(pc2, pb2, pok2) bit for bit: a row takes both in one sweep
// (foldRow2), the general table of several columns one after the other.
func (t *regionTable) fold2(pc1, pb1, pok1, pc2, pb2, pok2 float64) {
	stay1, move1, ok := t.rowStep(pc1, pb1, pok1)
	if !ok {
		t.fold(pc1, pb1, pok1)
		t.fold(pc2, pb2, pok2)
		return
	}
	stay2, move2, _ := t.rowStep(pc2, pb2, pok2)
	t.hi[0] = foldRow2(t.p[:t.w], t.hi[0], stay1, move1, stay2, move2)
}

// rowStep returns foldRow's stay and move for one node when the table is
// one row: over c + b, over b, or the general table's one column over c
// when Byz = 0. ok is false for the empty table and a general table of
// several columns.
func (t *regionTable) rowStep(pc, pb, pok float64) (stay, move float64, ok bool) {
	switch {
	case t.shape == shapeFaulty:
		return pok, pc + pb, true
	case t.shape == shapeByz:
		return 1 - pb, pb, true
	case t.shape == shapeGeneral && len(t.hi) == 1:
		return pok, pc, true
	}
	return 0, 0, false
}

// foldRow folds one node into a one-dimensional count row in place,
//
//	row[k] = row[k-1]·move + row[k]·stay,
//
// where the rest of the node's mass (1 - stay - move) leaves the region.
// hi is the row's live length before the fold; the new one is returned,
// cut where the row's all-zero tail begins.
func foldRow(row []float64, hi int, stay, move float64) int {
	if hi < len(row) {
		hi++
	}
	for k := hi - 1; k > 0; k-- {
		row[k] = flush(row[k-1]*move + row[k]*stay)
	}
	row[0] = flush(row[0] * stay)
	for hi > 0 && row[hi-1] == 0 {
		hi--
	}
	return hi
}

// foldCol folds one node into column b > 0 of the general table in place,
//
//	col[c] = col[c-1]·pc + left[c]·pb + col[c]·pok,
//
// in exactly that operation order, with left the column b-1 before this
// node (live length hiLeft). It returns the column's new live length. col
// holds at least cell c = 0; over the whole triangle, column n holds only
// that cell.
func foldCol(col, left []float64, hi, hiLeft int, pc, pb, pok float64) int {
	n := min(max(hi+1, hiLeft), len(col))
	for c := n - 1; c > 0; c-- {
		col[c] = flush(col[c-1]*pc + left[c]*pb + col[c]*pok)
	}
	col[0] = flush(left[0]*pb + col[0]*pok)
	for n > 0 && col[n-1] == 0 {
		n--
	}
	return n
}

// foldRow2 folds two nodes into a count row in place in one descending
// sweep, bit for bit foldRow(stay1, move1) then foldRow(stay2, move2): at
// each k it computes the first node's cell k-1, and its cells k-1 and k,
// carried in registers, make the second node's cell k, each by the same
// flush(a·move + b·stay) in the same order. The first node's cells stop
// at its own live length min(hi+1, len(row)); past it they are the 0 the
// row held. The second node's top cell may be one that foldRow would
// leave untouched after trimming the first node's zero tail: both its
// inputs are then 0, and so is what is written.
func foldRow2(row []float64, hi int, stay1, move1, stay2, move2 float64) int {
	h1 := min(hi+1, len(row))
	r := row[:min(h1+1, len(row))]
	k := len(r) - 1
	cur := 0.0 // the first node's cell k
	switch {
	case k >= h1:
	case k > 0:
		cur = flush(r[k-1]*move1 + r[k]*stay1)
	default:
		cur = flush(r[0] * stay1)
	}
	for ; k > 1; k-- {
		prev := flush(r[k-2]*move1 + r[k-1]*stay1)
		r[k] = flush(prev*move2 + cur*stay2)
		cur = prev
	}
	if k == 1 {
		prev := flush(r[0] * stay1)
		r[1] = flush(prev*move2 + cur*stay2)
		cur = prev
	}
	r[0] = flush(cur * stay2)
	h2 := len(r)
	for h2 > 0 && r[h2-1] == 0 {
		h2--
	}
	return h2
}
