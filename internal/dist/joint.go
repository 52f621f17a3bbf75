package dist

import (
	"math"

	"repro/internal/obs"
)

// JointCrashByz is the exact joint distribution of (#crashed, #Byzantine)
// across a fleet of independent tri-state nodes — the object at the heart
// of the paper's count-based analysis: a protocol model's safe and live
// sets are count regions over (c, b), and the probability of each is a
// sum over this table (RegionSum).
//
// The table is built by a 2-D trinomial dynamic program: folding in one
// node splits every (c, b) cell three ways (correct / crashed /
// Byzantine). Each fold is O(i^2) over the cells reachable after i nodes,
// so construction is O(n^3) total and O(n^2) space — exact for
// heterogeneous fleets of any composition, with no 3^N blow-up.
//
// The zero value is an empty (n=0) table ready for Reset. Reset rebuilds
// in place, reusing both internal buffers, so a long-lived
// JointCrashByz reaches zero steady-state allocations (pinned by
// TestWorkspaceZeroAllocs) — the workspace discipline every hot path of
// the evaluation engine is built on. A JointCrashByz is not safe for
// concurrent mutation; see core.EvaluatorPool for sharing across workers.
type JointCrashByz struct {
	n int
	// band holds the table: the (n+1)x(n+1) lower triangle flattened
	// row-major, p[c*(n+1)+b] = P[exactly c crashed and b Byzantine],
	// c+b <= n, together with its live extents.
	band
	// scratch is the DP's second buffer, kept so Reset never reallocates
	// in steady state.
	scratch band
}

// flushBelow is τ = 2⁻⁹⁰⁰ ≈ 1.2e-271: Reset and RegionPass.Reset store
// any cell below it as exact 0, so no fold ever reads a subnormal back (Go
// cannot set FTZ/DAZ, and each subnormal operand costs a microcode assist).
// Cells >= ~1e-250 are untouched, mass is only ever removed, and one
// build removes less than (N+1)(N+2)(N+3)/6·τ ≈ N³/6·τ in total
// (DESIGN.md "Incremental-DP math"; pinned by TestFlushBound). A
// constant, not a knob: nothing a caller can observe depends on it.
const flushBelow = 0x1p-900

const flushBits = (1023 - 900) << 52 // math.Float64bits(flushBelow)

// flush returns v, or 0 when v < τ, without a branch: for the non-negative
// values a fold produces float order is bit-pattern order, and the integer
// compare compiles to a conditional move.
func flush(v float64) float64 {
	u := math.Float64bits(v)
	if u < flushBits {
		u = 0
	}
	return math.Float64frombits(u)
}

// band is one DP buffer plus its live extents. Invariant: every cell of
// p[:cap(p)] is exactly 0 except the first hi[c] cells of rows c < rows
// (stride len(hi)) — so all-zero cells are neither computed nor re-zeroed,
// whole-buffer readers (PMF, mixtures, convolutions) see zeros there, and
// the w spare cells reset keeps past the table are a permanent zero row.
type band struct {
	p    []float64
	hi   []int // row c is zero from b = hi[c] on (tight after a fold)
	rows int   // hi[c] == 0 from c = rows on
}

// reset empties the band and sizes it for a w-row table. It clears only
// the cells the buffer's previous occupant left live, never all w².
func (t *band) reset(w int) {
	ow := len(t.hi)
	for c, h := range t.hi[:t.rows] {
		clear(t.p[c*ow : c*ow+h])
	}
	if need := w * (w + 1); cap(t.p) < need {
		t.p = make([]float64, w*w, need)
	} else {
		t.p = t.p[:w*w]
	}
	if cap(t.hi) < w {
		t.hi = make([]int, w)
	} else {
		t.hi = t.hi[:w]
		clear(t.hi)
	}
	t.rows = 0
}

// resetNoNodes is reset with all mass on (0, 0): the table over no nodes,
// which every build folds up from.
func (t *band) resetNoNodes(w int) {
	t.reset(w)
	t.p[0], t.hi[0], t.rows = 1, 1, 1
}

// resetDense sizes the band for an n-node table whose whole support
// triangle the caller is about to overwrite, and marks it all live. At an
// unchanged stride nothing needs clearing first: live extents never leave
// the triangle.
func (t *band) resetDense(n int) {
	if len(t.hi) != n+1 {
		t.reset(n + 1)
	}
	for c := range t.hi {
		t.hi[c] = n + 1 - c
	}
	t.rows = n + 1
}

// jointBuilds counts from-scratch DPs over a fleet: joint-table
// constructions (Reset and therefore NewJointCrashByz) and count-region
// folds (RegionPass.Reset, one per domain-free analysis; RegionLeaveOneOut's
// Reset and re-folds) — formerly a test-only hook pinning "one DP build
// per fleet" claims like SweepRaftQuorums', now a registered metric scraped
// from /metrics. Leave-one-out deflations do not count. workspaceReuses is
// its symmetric companion: builds whose buffers were already large enough,
// so the build allocated nothing.
var (
	jointBuilds = obs.Default().Counter("probcons_engine_joint_builds_total",
		"From-scratch DPs over a fleet: joint crash/Byzantine table builds and count-region passes (one per domain-free analysis).", nil)
	workspaceReuses = obs.Default().Counter("probcons_engine_workspace_reuses_total",
		"DP builds (joint tables and region passes) served entirely from existing workspace buffers (no allocation).", nil)
	// Block convolutions no longer split their rows (DESIGN.md "Engine
	// concurrency"), so this family is constantly 0. The frozen benchmark
	// scrapes it and fails on a missing sample, so it stays registered.
	_ = obs.Default().Counter("probcons_engine_parallel_folds_total",
		"Retired (block convolutions run serially; constantly 0); kept until the benchmark manifest drops dist.parallel_folds_per_req.", nil)
)

// JointBuilds returns the number of from-scratch DPs over a fleet (joint
// tables and region passes) performed by this process so far. Tests diff
// it around a call to assert how many builds the call performed.
func JointBuilds() int64 { return jointBuilds.Load() }

// clampTri normalises one node's tri-state to a valid distribution, crash
// taking priority over Byzantine — the same branch order the Monte-Carlo
// sampler uses — so DP tables always sum to exactly one node's worth of
// mass even for un-validated inputs. All folds and deflations must share
// this clamping so an incremental update inverts its fold exactly.
func clampTri(t TriState) (pc, pb, pok float64) {
	pc = Clamp01(t.PCrash)
	pb = Clamp01(t.PByz)
	if pb > 1-pc {
		pb = 1 - pc
	}
	return pc, pb, 1 - pc - pb
}

// NewJointCrashByz builds the joint distribution for independent nodes.
func NewJointCrashByz(nodes []TriState) *JointCrashByz {
	d := &JointCrashByz{}
	d.Reset(nodes)
	return d
}

// Reset rebuilds the table for the given nodes in place, one band-limited
// fold per node. Buffers are reused whenever they are large enough, so
// resetting a warm table of the same (or smaller) size allocates nothing.
func (d *JointCrashByz) Reset(nodes []TriState) {
	jointBuilds.Add(1)
	w := len(nodes) + 1
	if need := w * (w + 1); cap(d.p) >= need && cap(d.scratch.p) >= need {
		workspaceReuses.Add(1)
	}
	d.band.resetNoNodes(w)
	if len(d.scratch.hi) != w { // at an unchanged stride fold clears what is stale
		d.scratch.reset(w)
	}
	for _, t := range nodes {
		pc, pb, pok := clampTri(t)
		fold(&d.scratch, &d.band, pc, pb, pok)
		d.band, d.scratch = d.scratch, d.band
	}
	d.n = len(nodes)
}

// fold folds one node into dst from src, two buffers of the same stride:
//
//	dst[c][b] = src[c-1][b]·pc + src[c][b-1]·pb + src[c][b]·pok
//
// in exactly that operation order (the order the historical scatter fold
// delivered its contributions in), flushed below τ. Only the live band is
// visited: row c is computed up to max(hi[c-1], hi[c]+1), the furthest a
// non-zero source reaches, and src's zeros beyond its extents stand in for
// the out-of-support terms. dst must satisfy the band invariant on entry
// (its own stale extents are cleared as rows are rewritten).
func fold(dst, src *band, pc, pb, pok float64) {
	w := len(src.hi)
	rows := src.rows + 1
	zero := src.p[w*w : w*w+w]
	for c := 0; c < rows; c++ {
		prev, hp := zero, 0
		if c > 0 {
			prev, hp = src.p[(c-1)*w:c*w], src.hi[c-1]
		}
		cur, hc := src.p[c*w:(c+1)*w], src.hi[c]
		out := dst.p[c*w : (c+1)*w]
		m := hp
		if hc >= m && hc > 0 {
			m = hc + 1
		}
		if m > 0 {
			prev, cur, o := prev[:m], cur[:m], out[:m]
			o[0] = flush(prev[0]*pc + cur[0]*pok)
			for b := 1; b < len(o); b++ {
				o[b] = flush(prev[b]*pc + cur[b-1]*pb + cur[b]*pok)
			}
		}
		for m > 0 && out[m-1] == 0 {
			m--
		}
		if stale := dst.hi[c]; stale > m {
			clear(out[m:stale])
		}
		dst.hi[c] = m
	}
	for c := rows; c < dst.rows; c++ {
		clear(dst.p[c*w : c*w+dst.hi[c]])
		dst.hi[c] = 0
	}
	for rows > 0 && dst.hi[rows-1] == 0 {
		rows--
	}
	dst.rows = rows
}

// N returns the fleet size.
func (d *JointCrashByz) N() int { return d.n }

// PMF returns P[#crashed = c, #Byzantine = b]; 0 outside the triangle.
func (d *JointCrashByz) PMF(c, b int) float64 {
	if c < 0 || b < 0 || c+b > d.n {
		return 0
	}
	return d.p[c*(d.n+1)+b]
}

// Row returns row c <= N()'s cells P[c, 0..], cut where the row's all-zero
// tail begins (empty past the last row holding mass) — the slice
// whole-table consumers walk instead of calling PMF per cell. It aliases
// the table: read-only, valid until the next mutation.
func (d *JointCrashByz) Row(c int) []float64 {
	w := d.n + 1
	return d.p[c*w : c*w+d.hi[c]]
}

// RegionSum returns the probability mass of the cells of region r: a
// compensated sum over the live cells of r in row-major order (c
// ascending, then b ascending up to min(r.Byz, r.Faulty − c)). It does not
// clamp, and an empty region sums to 0. It is how every engine that reads
// a joint table asks a theorem's question (DESIGN.md "Count regions"):
// the domain engines' results, the rest tables (one shifted region per
// entry) and the leave-one-out gradient's objective.
func (d *JointCrashByz) RegionSum(r Region) float64 {
	var s KahanSum
	for c := 0; c < d.rows && c <= r.Faulty; c++ {
		row := d.Row(c)
		for _, v := range row[:max(0, min(len(row), r.Byz+1, r.Faulty-c+1))] {
			s.Add(v)
		}
	}
	return s.Sum()
}

// SumWhere returns the total probability mass of the cells where the
// predicate holds — e.g. a protocol model's Safe(c, b). The sum is
// compensated and clamped.
func (d *JointCrashByz) SumWhere(pred func(crashed, byz int) bool) float64 {
	var s KahanSum
	for c := 0; c < d.rows; c++ {
		for b, mass := range d.Row(c) {
			if pred(c, b) {
				s.Add(mass)
			}
		}
	}
	return Clamp01(s.Sum())
}
