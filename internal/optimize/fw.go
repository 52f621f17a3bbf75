package optimize

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Solver traffic counters, registered on the process-global obs registry:
// the FrankWolfe.jl-style per-iteration discipline (arxiv 2104.06675)
// reduced to what a fleet dashboard needs — how many solves ran, how many
// conditional-gradient iterations (one LMO call each) and how many
// gradient evaluations they spent. Each analytic gradient costs a region
// fold plus N deflations, so grad_evaluations_total is the direct proxy for
// optimizer engine load, and its ratio to iterations_total is what the
// step rule costs per iteration.
var (
	fwSolves = obs.Default().Counter("probcons_optimize_solves_total",
		"Away-step Frank-Wolfe solves started.", nil)
	fwIterations = obs.Default().Counter("probcons_optimize_iterations_total",
		"Frank-Wolfe iterations across all solves (one LMO call and at least one gradient each).", nil)
	fwGradEvals = obs.Default().Counter("probcons_optimize_grad_evaluations_total",
		"Objective gradient evaluations across all solves, line-search probes included; over iterations_total it is the step rule's probes per iteration.", nil)
)

// Objective is a smooth function with a gradient, the thing the solver
// minimizes. Implementations may assume x is feasible up to the small
// perturbations of finite-difference probing.
type Objective interface {
	// Value evaluates f(x).
	Value(x []float64) float64
	// Grad writes ∇f(x) into out (len(out) == len(x)).
	Grad(x, out []float64)
}

// FuncObjective adapts plain closures to Objective. G may be nil, in
// which case Grad falls back to central differences with step
// DefaultDiffStep.
type FuncObjective struct {
	F func(x []float64) float64
	G func(x, out []float64)
}

// Value implements Objective.
func (o FuncObjective) Value(x []float64) float64 { return o.F(x) }

// Grad implements Objective.
func (o FuncObjective) Grad(x, out []float64) {
	if o.G != nil {
		o.G(x, out)
		return
	}
	CentralDiffGrad(o.F, x, DefaultDiffStep, out)
}

// Options tunes the solver. Zero values take defaults.
type Options struct {
	// MaxIterations bounds the outer loop (default 500).
	MaxIterations int
	// GapTolerance is the duality-gap stopping certificate (default 1e-8):
	// the solver stops once max_v <∇f(x), x-v> <= GapTolerance.
	GapTolerance float64
	// TrackGaps records the per-iteration duality gap into Solution.Gaps
	// (off by default).
	TrackGaps bool
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500
	}
	if o.GapTolerance <= 0 {
		o.GapTolerance = 1e-8
	}
	return o
}

// Validate rejects non-finite tolerances.
func (o Options) Validate() error {
	if math.IsNaN(o.GapTolerance) || math.IsInf(o.GapTolerance, 0) || o.GapTolerance < 0 {
		return fmt.Errorf("optimize: gap tolerance must be finite and >= 0, got %v", o.GapTolerance)
	}
	return nil
}

// Solution is a solver's result.
type Solution struct {
	// X is the final feasible iterate.
	X []float64
	// Value is f(X).
	Value float64
	// Gap is the Frank-Wolfe duality gap max_v <∇f(X), X-v> at X: an
	// upper bound on f(X)-f* for convex f, a stationarity certificate
	// otherwise.
	Gap float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// Converged reports whether Gap <= GapTolerance was certified.
	Converged bool
	// Evaluations counts objective Value calls and GradEvaluations counts
	// Grad calls, line searches and certification included. The work
	// lives in GradEvaluations: the step is the root of the directional
	// derivative, found without objective values.
	Evaluations     int
	GradEvaluations int
	// Gaps is the per-iteration duality gap when Options.TrackGaps is set.
	Gaps []float64
}

// countingObjective wraps an Objective to meter the Solution's
// Evaluations/GradEvaluations accounting.
type countingObjective struct {
	obj    Objective
	values int
	grads  int
}

func (c *countingObjective) Value(x []float64) float64 { c.values++; return c.obj.Value(x) }
func (c *countingObjective) Grad(x, out []float64)     { c.grads++; c.obj.Grad(x, out) }

// report writes the solve's call counts into sol and onto the process
// counter, once per solve.
func (c *countingObjective) report(sol *Solution) {
	sol.Evaluations = c.values
	sol.GradEvaluations = c.grads
	fwGradEvals.Add(int64(c.grads))
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// vertexAtom is one active vertex of the away-step iterate.
type vertexAtom struct {
	v []float64
	w float64
}

func vertexKey(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for _, f := range v {
		u := math.Float64bits(f)
		b = append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return string(b)
}

// AwayStepFrankWolfe minimizes obj over the polytope by away-step
// Frank-Wolfe (Lacoste-Julien & Jaggi 2015): the iterate is maintained as
// an explicit convex combination of vertices, and each iteration either
// moves toward the LMO vertex (FW step) or away from the worst active
// vertex (away step), which removes the zig-zagging that limits vanilla
// FW to O(1/t) when the optimum lies on a face — on polytopes it
// converges linearly for smooth strongly convex objectives. Every iterate
// is a convex combination of vertices, hence feasible — no projections.
func AwayStepFrankWolfe(obj Objective, p Polytope, opts Options) (Solution, error) {
	return awayStepFrankWolfe(obj, p, opts, exactStep)
}

// awayStepFrankWolfe is AwayStepFrankWolfe with the exact step rule passed
// in.
func awayStepFrankWolfe(obj Objective, p Polytope, opts Options, exact stepRule) (Solution, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return Solution{}, err
	}
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := p.Dim()
	cobj := &countingObjective{obj: obj}
	obj = cobj

	// Start from a vertex so the iterate is a convex combination of
	// vertices from the first step. The active set is an ORDERED slice
	// (plus an index for lookups): iterating a Go map would make both the
	// away-vertex tie-break and the float summation order — and therefore
	// the returned bits — vary run to run, breaking the deterministic-
	// solver contract the fingerprint caches rely on.
	x := p.LinearMinimize(make([]float64, n))
	var active []*vertexAtom
	index := map[string]int{}
	{
		v := append([]float64(nil), x...)
		index[vertexKey(v)] = 0
		active = append(active, &vertexAtom{v: v, w: 1})
	}
	rebuild := func() {
		for i := range x {
			x[i] = 0
		}
		for _, a := range active {
			for i := range x {
				x[i] += a.w * a.v[i]
			}
		}
	}
	remove := func(pos int) {
		delete(index, vertexKey(active[pos].v))
		active = append(active[:pos], active[pos+1:]...)
		for i := pos; i < len(active); i++ {
			index[vertexKey(active[i].v)] = i
		}
	}

	grad := make([]float64, n)
	d := make([]float64, n)
	ls := newLineSearch(obj, exact, n)
	sol := Solution{}
	fwSolves.Inc()
	for t := 0; t < opts.MaxIterations; t++ {
		fwIterations.Inc()
		obj.Grad(x, grad)
		s := p.LinearMinimize(grad)
		fwGap := dot(grad, x) - dot(grad, s)
		if opts.TrackGaps {
			sol.Gaps = append(sol.Gaps, fwGap)
		}
		sol.Gap = fwGap
		sol.Iterations = t
		if fwGap <= opts.GapTolerance {
			sol.Converged = true
			break
		}
		// Away vertex: the active vertex the gradient most wants to leave
		// (first in insertion order on ties — deterministic).
		var away *vertexAtom
		awayPos := -1
		awayScore := math.Inf(-1)
		for pos, a := range active {
			if sc := dot(grad, a.v); sc > awayScore {
				awayScore = sc
				away = a
				awayPos = pos
			}
		}
		awayGap := awayScore - dot(grad, x)

		var gammaMax float64
		fwStep := fwGap >= awayGap || away == nil || away.w >= 1
		if fwStep {
			for i := range d {
				d[i] = s[i] - x[i]
			}
			gammaMax = 1
		} else {
			for i := range d {
				d[i] = x[i] - away.v[i]
			}
			gammaMax = away.w / (1 - away.w)
		}
		slope := dot(grad, d)
		gamma := ls.step(x, d, gammaMax, slope)
		if gamma == 0 {
			break
		}
		if fwStep {
			if gamma >= 1 {
				active = active[:0]
				index = map[string]int{}
				v := append([]float64(nil), s...)
				index[vertexKey(v)] = 0
				active = append(active, &vertexAtom{v: v, w: 1})
			} else {
				for _, a := range active {
					a.w *= 1 - gamma
				}
				key := vertexKey(s)
				if pos, ok := index[key]; ok {
					active[pos].w += gamma
				} else {
					v := append([]float64(nil), s...)
					index[key] = len(active)
					active = append(active, &vertexAtom{v: v, w: gamma})
				}
			}
		} else {
			for _, a := range active {
				a.w *= 1 + gamma
			}
			away.w -= gamma
			if away.w <= 1e-14 {
				remove(awayPos) // drop step
			}
		}
		// Recompute the iterate from the combination: keeps x and the
		// weights consistent to machine precision over many steps.
		rebuild()
		sol.Iterations = t + 1 // this iteration completed with a step
	}
	sol.X = x
	sol.Value = obj.Value(x)
	if !sol.Converged {
		obj.Grad(x, grad)
		s := p.LinearMinimize(grad)
		sol.Gap = dot(grad, x) - dot(grad, s)
		sol.Converged = sol.Gap <= opts.GapTolerance
	}
	cobj.report(&sol)
	return sol, nil
}

// stepRule finds the exact step: given the directional derivative
// dphi(γ) = φ'(γ) = <∇f(x+γd), d>, its value slope = φ'(0) < 0 and the
// segment's end gammaMax > 0, it returns a γ ∈ [0, gammaMax] with
// φ'(γ) <= 0. The solver runs exactStep; the type exists so the tests can
// run the same solver over the bisection oracle.
type stepRule func(dphi func(gamma float64) float64, slope, gammaMax float64) float64

// lineSearch is one solve's step rule and the buffers its probes reuse.
type lineSearch struct {
	obj   Objective
	exact stepRule
	trial []float64 // x + γd
	grad  []float64 // ∇f(trial)
}

func newLineSearch(obj Objective, exact stepRule, n int) *lineSearch {
	return &lineSearch{obj: obj, exact: exact, trial: make([]float64, n), grad: make([]float64, n)}
}

// step picks γ ∈ [0, gammaMax] along d from x. slope is <∇f(x), d>,
// negative for descent directions.
func (ls *lineSearch) step(x, d []float64, gammaMax, slope float64) float64 {
	if gammaMax <= 0 || slope >= 0 {
		return 0
	}
	return ls.exact(func(gamma float64) float64 {
		for j := range ls.trial {
			ls.trial[j] = x[j] + gamma*d[j]
		}
		ls.obj.Grad(ls.trial, ls.grad)
		return dot(ls.grad, d)
	}, slope, gammaMax)
}

// stepTolerance is the width, relative to gammaMax, at which exactStep
// stops shrinking its bracket; maxStepProbes caps its gradient calls. Both
// are constants on evidence (DESIGN.md "Where a solve's time goes"): 1e-12
// keeps every certificate a step resolved to one ulp earns, 1e-9 does not,
// and the serving layer's work bound assumes the cap.
const (
	stepTolerance = 1e-12
	maxStepProbes = 64
)

// exactStep minimizes φ(γ) = f(x + γd) over [0, gammaMax] by bracketing the
// root of the directional derivative φ'(γ) = dphi(γ), assuming φ is
// unimodal on the segment. Working on the derivative instead of function
// values matters: f-value comparisons cannot resolve steps finer than
// √(ε·|f|), which caps the achievable duality gap around 1e-8; derivative
// signs resolve far below that, so the solver can certify tighter gaps.
//
// The root-finder is Brent's (Algorithms for Minimization without
// Derivatives, ch. 4). The bracket starts from the two values the solver
// already has — φ'(0) = slope < 0 from the caller's descent direction,
// φ'(gammaMax) from the boundary test. Each probe is placed by inverse
// quadratic interpolation through the last three points (the secant
// through two while only two are distinct); it is replaced by the
// bracket's midpoint unless it falls inside the bracket's three quarters
// nearest the best point and is shorter than half the step before last, so
// interpolation that stops shrinking the bracket gives way to bisection.
// No probe moves less than half the tolerance, so an estimate that has
// converged from one side steps across the root and closes the bracket. On
// the smooth φ' of the engine objectives that is about five probes per
// line search.
//
// It returns the bracket's lower end once the bracket is narrower than
// stepTolerance·gammaMax, or after maxStepProbes probes. φ' <= 0 there, and
// φ' < 0 on all of [0, γ) by unimodality, so the returned step always
// descends; 0 means the minimizer is within the tolerance of x.
func exactStep(dphi func(gamma float64) float64, slope, gammaMax float64) float64 {
	fc := dphi(gammaMax)
	if fc <= 0 {
		return gammaMax // still descending at the boundary
	}
	// Brent's names: b is the best estimate (|fb| <= |fc|), c the bracket's
	// other end (φ' of the opposite sign), a the estimate before b; d is
	// the step being taken, e the one before it.
	tol := 0.5 * stepTolerance * gammaMax
	b, fb := 0.0, slope
	c := gammaMax
	a, fa := c, fc
	d := b - a
	e := d
	for probes := 1; probes < maxStepProbes; probes++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
		}
		mid := 0.5 * (c - b)
		if math.Abs(mid) <= tol || fb == 0 {
			break
		}
		interpolated := false
		if math.Abs(e) >= tol && math.Abs(fa) > math.Abs(fb) {
			// Step p/q from b; p >= 0 after the sign is moved into q.
			var p, q float64
			s := fb / fa
			if a == c {
				p, q = 2*mid*s, 1-s
			} else {
				t, r := fa/fc, fb/fc
				p = s * (2*mid*t*(t-r) - (b-a)*(r-1))
				q = (t - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*mid*q-math.Abs(tol*q), math.Abs(e*q)) {
				d, e, interpolated = p/q, d, true
			}
		}
		if !interpolated {
			d, e = mid, mid
		}
		a, fa = b, fb
		if math.Abs(d) > tol {
			b += d
		} else {
			b += math.Copysign(tol, mid)
		}
		fb = dphi(b)
		if (fb > 0) == (fc > 0) {
			// b landed on c's side of the root, which now lies between b
			// and the previous estimate.
			c, fc = a, fa
			d = b - a
			e = d
		}
	}
	if fb <= 0 {
		return b
	}
	return c
}
