package dist

import "repro/internal/obs"

// JointCrashByz is the exact joint distribution of (#crashed, #Byzantine)
// across a fleet of independent tri-state nodes — the object at the heart
// of the paper's count-based analysis: a protocol model's safe and live
// sets are count regions over (c, b), and the probability of each is a
// sum over this table. Every analysis folds only the cells of its regions
// (RegionPass); the whole table serves the quorum sweeps, which ask about
// every sizing at once, and is the region kernels' test oracle.
//
// The table is the count-region kernel's general table laid over the
// whole triangle: n+1 columns of stride n+1, column b holding
// P[C = c, B = b] for c ascending, c + b <= n. Folding in one node splits
// every (c, b) cell three ways (correct / crashed / Byzantine) in place
// (regionTable.fold). Each fold is O(i^2) over the cells reachable after
// i nodes, so construction is O(n^3) total and O(n^2) space — exact for
// heterogeneous fleets of any composition, with no 3^N blow-up.
//
// The zero value is an empty (n=0) table ready for Reset. Reset rebuilds
// in place, reusing its buffer, so a long-lived JointCrashByz reaches zero
// steady-state allocations (pinned by TestWorkspaceZeroAllocs) — the
// workspace discipline every hot path of the evaluation engine is built
// on. A JointCrashByz is not safe for concurrent mutation; see
// core.EvaluatorPool for sharing across workers.
type JointCrashByz struct {
	n int
	t regionTable
}

// flushBelow is τ = 2⁻⁹⁰⁰ ≈ 1.2e-271: every fold (regionTable.fold)
// stores any cell below it as exact 0, so no fold ever reads a subnormal
// back (Go cannot set FTZ/DAZ, and each subnormal operand costs a
// microcode assist). Cells >= ~1e-250 are untouched, mass is only ever
// removed, and one build removes less than (N+1)(N+2)(N+3)/6·τ ≈ N³/6·τ
// in total (DESIGN.md "Incremental-DP math"; pinned by TestFlushBound). A
// constant, not a knob: nothing a caller can observe depends on it.
const flushBelow = 0x1p-900

// flush returns v, or 0 when v < τ. The branch is taken only in a deep
// tail, and there over one contiguous run of cells, so it predicts well
// and costs less than moving each cell through the integer registers to
// compare its bits. For every value a fold produces — +0, finite
// non-negatives, +Inf and NaN — this is the same as comparing the bit
// patterns; the two differ only on negatives and -0, which no fold
// produces (DESIGN.md "Count regions").
func flush(v float64) float64 {
	if v < flushBelow {
		return 0
	}
	return v
}

// jointBuilds counts from-scratch DPs over a fleet or a node group:
// joint-table constructions (Reset and therefore NewJointCrashByz) and
// count-region folds (RegionPass.Reset, one per domain-free analysis;
// RegionPass.ResetGroup, one per cold domain walk; RegionLeaveOneOut.Reset,
// one per gradient) — formerly a test-only hook pinning "one DP build per
// fleet" claims like SweepRaftQuorums', now a registered metric scraped
// from /metrics. Folds onto a table (Fold), mixtures and backward folds do
// not count. workspaceReuses is its symmetric companion: builds whose
// buffers were already large enough, so the build allocated nothing.
var (
	jointBuilds = obs.Default().Counter("probcons_engine_joint_builds_total",
		"From-scratch DPs over a fleet or node group: joint crash/Byzantine table builds and count-region folds (one per domain-free analysis, one per cold correlated-domain walk).", nil)
	workspaceReuses = obs.Default().Counter("probcons_engine_workspace_reuses_total",
		"DP builds (joint tables and region passes) served entirely from existing workspace buffers (no allocation).", nil)
	// No kernel splits its rows (DESIGN.md "Engine concurrency") and the
	// leave-one-out no longer deflates, so these two
	// families are constantly 0. The frozen benchmark scrapes them and
	// fails on a missing sample, so they stay registered.
	_ = obs.Default().Counter("probcons_engine_parallel_folds_total",
		"Retired (no kernel splits its work; constantly 0); kept until the benchmark manifest drops dist.parallel_folds_per_req.", nil)
	_ = obs.Default().Counter("probcons_engine_loo_deflations_total",
		"Retired (the leave-one-out folds forward and backward, never deflates; constantly 0); kept until the benchmark manifest drops dist.loo_deflations_per_req.", nil)
)

// JointBuilds returns the number of from-scratch DPs over a fleet (joint
// tables and region passes) performed by this process so far. Tests diff
// it around a call to assert how many builds the call performed.
func JointBuilds() int64 { return jointBuilds.Load() }

// clampTri normalises one node's tri-state to a valid distribution, crash
// taking priority over Byzantine — the same branch order the Monte-Carlo
// sampler uses — so DP tables always sum to exactly one node's worth of
// mass even for un-validated inputs. Forward and backward folds share
// this clamping, so a node's backward fold is the adjoint of its forward.
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

// Reset rebuilds the table for the given nodes in place, one fold per
// node. The buffer is reused whenever it is large enough, so resetting a
// warm table of the same (or smaller) size allocates nothing.
func (d *JointCrashByz) Reset(nodes []TriState) {
	jointBuilds.Add(1)
	w := len(nodes) + 1
	if !d.t.size(shapeGeneral, w, w) {
		workspaceReuses.Add(1)
	}
	d.t.p[0], d.t.hi[0] = 1, 1
	for _, t := range nodes {
		d.t.fold(clampTri(t))
	}
	d.n = len(nodes)
}

// N returns the fleet size.
func (d *JointCrashByz) N() int { return d.n }

// PMF returns P[#crashed = c, #Byzantine = b]; 0 outside the triangle.
func (d *JointCrashByz) PMF(c, b int) float64 {
	if c < 0 || b < 0 || c+b > d.n {
		return 0
	}
	return d.t.p[b*d.t.w+c]
}

// SumWhere returns the total probability mass of the cells where the
// predicate holds — e.g. a protocol model's Safe(c, b). The sum is
// compensated and clamped, and runs c-major (c ascending, then b), reading
// across the columns.
func (d *JointCrashByz) SumWhere(pred func(crashed, byz int) bool) float64 {
	var s KahanSum
	t := &d.t
	cols := t.liveCols()
	rows := 0
	for _, h := range t.hi[:cols] {
		rows = max(rows, h)
	}
	for c := 0; c < rows; c++ {
		for b, h := range t.hi[:cols] {
			if c < h && pred(c, b) {
				s.Add(t.p[b*t.w+c])
			}
		}
	}
	return Clamp01(s.Sum())
}
