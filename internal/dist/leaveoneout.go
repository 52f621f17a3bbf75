package dist

import "repro/internal/obs"

// LeaveOneOut maintains the joint (#crashed, #Byzantine) distribution of a
// fleet together with cheap access to every "all nodes but one" sub-
// distribution — the quantity analytic gradients and sensitivity analyses
// need once per node. A fresh build of J_{-i} costs O(n^3); this structure
// instead *deflates* node i back out of the full table in O(n^2) row work,
// because the trinomial DP fold is an invertible linear map:
//
//	full[c][b] = J₋ᵢ[c][b]·pok + J₋ᵢ[c-1][b]·pc + J₋ᵢ[c][b-1]·pb
//
// Solving in increasing (c, b) order gives
//
//	J₋ᵢ[c][b] = (full[c][b] - J₋ᵢ[c-1][b]·pc - J₋ᵢ[c][b-1]·pb) / pok,
//
// a back-substitution whose round-off stays bounded while pok is not
// small: each step multiplies the accumulated error by at most
// (pc+pb)/pok. Below the looMinPCorrect threshold Without falls back to a
// from-scratch O(n^3) rebuild, so results match fresh DPs to ~1e-13 for
// any profile (pinned by the dist property tests at 1e-12).
//
// The one DP build happens at Reset; each Without(i) is then O(n^2), so a
// full gradient pass costs one build plus n deflations instead of n
// rebuilds. Buffers are reused across calls: zero steady-state
// allocations. Not safe for concurrent use; the table returned by Without
// is owned by the LeaveOneOut and valid only until the next Without or
// Reset call.
type LeaveOneOut struct {
	nodes []TriState
	rest  []TriState // scratch for the rebuild fallback
	full  JointCrashByz
	loo   JointCrashByz
}

// looDeflations counts O(n^2) back-substitution deflations; looRebuilds
// counts the from-scratch fallbacks taken when a node's correctness
// probability sits below the stability threshold. Together they make the
// "one build plus n deflations per gradient" claim scrapeable: a healthy
// optimizer workload shows deflations >> rebuilds.
var (
	looDeflations = obs.Default().Counter("probcons_engine_loo_deflations_total",
		"Leave-one-out O(n^2) back-substitution deflations of the joint DP.", nil)
	looRebuilds = obs.Default().Counter("probcons_engine_loo_rebuilds_total",
		"Leave-one-out from-scratch rebuild fallbacks (node correctness below stability threshold).", nil)
)

// looMinPCorrect is the deflation stability threshold: below this
// per-node correctness probability the error-amplification ratio
// (pc+pb)/pok exceeds 1/3 and Without rebuilds from scratch instead.
// At the threshold a 25-node deflation amplifies round-off by at most
// (1/0.75)^25 ≈ 1.3e3·ulp ≈ 1e-13 — inside the 1e-12 cross-pin budget.
const looMinPCorrect = 0.75

// Reset rebuilds the full joint table for a new fleet, reusing every
// buffer. This is the structure's one O(n^3) DP build.
func (l *LeaveOneOut) Reset(nodes []TriState) {
	l.nodes = append(l.nodes[:0], nodes...)
	l.full.Reset(l.nodes)
}

// Full returns the joint table over all nodes. The table is owned by the
// LeaveOneOut and valid until the next Reset.
func (l *LeaveOneOut) Full() *JointCrashByz { return &l.full }

// Without returns the joint table over every node except i, by O(n^2)
// deflation (or an O(n^3) rebuild when node i's correctness probability
// sits below the stability threshold). The returned table is owned by the
// LeaveOneOut and valid until the next Without or Reset call.
func (l *LeaveOneOut) Without(i int) *JointCrashByz {
	pc, pb, pok := clampTri(l.nodes[i])
	n := len(l.nodes)
	if pok < looMinPCorrect {
		looRebuilds.Add(1)
		l.rest = append(l.rest[:0], l.nodes[:i]...)
		l.rest = append(l.rest, l.nodes[i+1:]...)
		l.loo.Reset(l.rest)
		return &l.loo
	}
	looDeflations.Add(1)
	m := n - 1 // leave-one-out fleet size
	wf := n + 1
	w := m + 1
	l.loo.band.resetDense(m)
	out := l.loo.p
	for c := 0; c <= m; c++ {
		for b := 0; b+c <= m; b++ {
			v := l.full.p[c*wf+b]
			if c > 0 {
				v -= out[(c-1)*w+b] * pc
			}
			if b > 0 {
				v -= out[c*w+b-1] * pb
			}
			out[c*w+b] = v / pok
		}
	}
	l.loo.n = m
	return &l.loo
}
