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
// one inside. Cells below τ are flushed as in JointCrashByz.Reset.
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
// The zero value is ready; buffers are reused, so a warm RegionPass folds
// without allocating. Not safe for concurrent use.
type RegionPass struct {
	tabs [3]regionTable
}

// regionTable is one region's truncated table: cols columns of stride
// len(p)/cols, column b holding P[C = c, B = b] (general shape) or one row
// holding P[C + B = k] or P[B = k] (cols == 1). hi[b] is column b's live
// length; every cell past it is exactly 0.
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

// Reset folds the nodes into the three regions' tables. Like
// JointCrashByz.Reset it is one from-scratch DP over the fleet and counts
// as one on probcons_engine_joint_builds_total.
func (rp *RegionPass) Reset(nodes []TriState, regions [3]Region) {
	jointBuilds.Add(1)
	grew := false
	for i := range rp.tabs {
		grew = rp.tabs[i].reset(regions[i], len(nodes)) || grew
	}
	if !grew {
		workspaceReuses.Add(1)
	}
	for _, t := range nodes {
		pc, pb, pok := clampTri(t)
		for i := range rp.tabs {
			rp.tabs[i].fold(pc, pb, pok)
		}
	}
}

// Mass returns region i's probability mass after the last Reset,
// compensated and clamped.
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
	for b, h := range t.hi { // clear what the previous pass left live
		clear(t.p[b*t.w : b*t.w+h])
	}
	byz, faulty := min(r.Byz, n), min(r.Faulty, n)
	cols := 1
	switch {
	case byz < 0 || faulty < 0:
		t.shape, t.w, cols = shapeEmpty, 0, 0
	case byz >= faulty:
		t.shape, t.w = shapeFaulty, faulty+1
	case faulty >= n:
		t.shape, t.w = shapeByz, byz+1
	default:
		t.shape, t.w, cols = shapeGeneral, faulty+1, byz+1
	}
	if cols == 0 {
		t.hi = t.hi[:0]
		return false
	}
	need := cols * t.w
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
	switch t.shape {
	case shapeFaulty:
		t.hi[0] = foldRow(t.p, t.hi[0], pok, pc+pb)
	case shapeByz:
		t.hi[0] = foldRow(t.p, t.hi[0], 1-pb, pb)
	case shapeGeneral:
		// Descending b: column b reads column b-1 before it is folded.
		for b := len(t.hi) - 1; b > 0; b-- {
			col := t.p[b*t.w : b*t.w+t.w-b] // c + b <= Faulty
			left := t.p[(b-1)*t.w : b*t.w]
			t.hi[b] = foldCol(col, left, t.hi[b], t.hi[b-1], pc, pb, pok)
		}
		t.hi[0] = foldRow(t.p[:t.w], t.hi[0], pok, pc)
	}
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
// the joint fold's operation order, with left the column b-1 before this
// node (live length hiLeft). It returns the column's new live length.
func foldCol(col, left []float64, hi, hiLeft int, pc, pb, pok float64) int {
	n := min(max(hi+1, hiLeft), len(col)) // len(col) >= 2: b <= Byz < Faulty
	for c := n - 1; c > 0; c-- {
		col[c] = flush(col[c-1]*pc + left[c]*pb + col[c]*pok)
	}
	col[0] = flush(left[0]*pb + col[0]*pok)
	for n > 0 && col[n-1] == 0 {
		n--
	}
	return n
}
