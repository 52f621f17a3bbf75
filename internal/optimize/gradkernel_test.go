package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// without returns the nodes other than i.
func without(nodes []dist.TriState, i int) []dist.TriState {
	return append(append([]dist.TriState(nil), nodes[:i]...), nodes[i+1:]...)
}

// oracleGrad is the closure-based gradient the table kernel
// (refHardeningGrad) replaced, kept as the textbook oracle: the indicator
// evaluated through the model's Safe/Live methods per cell, the hardened
// fleet materialized per call, each J₋ᵢ a fresh joint table over the other
// nodes. It returns its U.
func oracleGrad(p HardeningProblem, x, out []float64) (u float64) {
	n := len(p.Fleet)
	ok := func(c, b int) float64 {
		if c < 0 || b < 0 || c+b > n {
			return 0
		}
		if p.Model.Safe(c, b) && p.Model.Live(c, b) {
			return 1
		}
		return 0
	}
	hardened := p.fleetAt(x)
	tri := make([]dist.TriState, n)
	for i, node := range hardened {
		tri[i] = node.Profile.TriState()
	}
	safeAndLive := dist.NewJointCrashByz(tri).SumWhere(func(c, b int) bool {
		return p.Model.Safe(c, b) && p.Model.Live(c, b)
	})
	u = math.Max(1-safeAndLive, unavailFloor)
	for i := 0; i < n; i++ {
		joint := dist.NewJointCrashByz(without(tri, i))
		bf := byzFraction(p.Fleet[i].Profile)
		cf := 1 - bf
		var dSL float64
		for c := 0; c <= n-1; c++ {
			for b := 0; b+c <= n-1; b++ {
				m := joint.PMF(c, b)
				if m == 0 {
					continue
				}
				dSL += m * (cf*ok(c+1, b) + bf*ok(c, b+1) - ok(c, b))
			}
		}
		// f = ln(U), U = 1 - SafeAndLive: df/dx_i = -dSL/dp · p'(x_i) / U.
		out[i] = -dSL * p.Curves[i].DProb(x[i]) / u
	}
	return u
}

// refHardeningGrad is hardeningGrad.grad as it was before the region's
// boundary was read directly: the safe-and-live indicator as an
// (n+2)×(n+2) table of 0/1 floats (0 beyond c + b <= n), the objective a
// compensated sum of m·ok over the full joint table, and each coordinate
// two multiply-adds per cell of J₋ᵢ, a fresh joint table over the other
// nodes, over differences of table entries. It returns its U.
func refHardeningGrad(p HardeningProblem, x, out []float64) (u float64) {
	n := len(p.Fleet)
	w := n + 2
	ok := make([]float64, w*w)
	for c := 0; c <= n; c++ {
		for b := 0; c+b <= n; b++ {
			if p.Model.Safe(c, b) && p.Model.Live(c, b) {
				ok[c*w+b] = 1
			}
		}
	}
	bf := make([]float64, n)
	nodes := make([]dist.TriState, n)
	for i, node := range p.Fleet {
		bf[i] = byzFraction(node.Profile)
		q := p.Curves[i].Prob(x[i])
		nodes[i] = dist.TriState{PCrash: q * (1 - bf[i]), PByz: q * bf[i]}
	}
	var safeAndLive dist.KahanSum
	full := dist.NewJointCrashByz(nodes)
	for c := 0; c <= full.N(); c++ {
		okRow := ok[c*w:]
		for b, m := range full.Row(c) {
			safeAndLive.Add(m * okRow[b])
		}
	}
	u = math.Max(1-dist.Clamp01(safeAndLive.Sum()), unavailFloor)
	for i := range nodes {
		joint := dist.NewJointCrashByz(without(nodes, i))
		var dCrash, dByz float64
		for c := 0; c <= joint.N(); c++ {
			okRow, next := ok[c*w:], ok[(c+1)*w:]
			for b, m := range joint.Row(c) {
				dCrash += m * (next[b] - okRow[b])
				dByz += m * (okRow[b+1] - next[b])
			}
		}
		dSL := dCrash + bf[i]*dByz
		out[i] = -dSL * p.Curves[i].DProb(x[i]) / u
	}
	return u
}

// gradProblem builds an n-node hardening problem from per-node base
// profiles drawn by draw.
func gradProblem(n int, pbft bool, draw func(i int) faultcurve.Profile) HardeningProblem {
	var m core.CountModel = core.NewRaft(n)
	if pbft {
		m = core.NewPBFTForN(n)
	}
	return gradProblemFor(m, draw)
}

// gradProblemFor is gradProblem for any model, sized by m.N().
func gradProblemFor(m core.CountModel, draw func(i int) faultcurve.Profile) HardeningProblem {
	n := m.N()
	fleet := make(core.Fleet, n)
	curves := make([]faultcurve.Response, n)
	for i := range fleet {
		prof := draw(i)
		fleet[i] = core.Node{Profile: prof}
		curves[i] = faultcurve.HardeningResponse(prof.PFail(), 0.1, 0.5)
	}
	return HardeningProblem{Fleet: fleet, Model: m, Curves: curves, Budget: 1}
}

// TestGradKernelMatchesOracle compares the region leave-one-out gradient
// with the table kernel it replaced and with the closure-based gradient
// before that, both of which build each J₋ᵢ as a fresh joint table over
// the other nodes. Its U is pinned with == to Eval's: value and gradient
// read one region table. Each coordinate, rescaled to the oracle's U (the
// two U are complements formed from different tables, so they part where U
// nears ulp·N), is pinned to 1e-12 relative. The cases span the branches of
// all three: the Byzantine term (PBFT), crash-only raft, the sizes from one
// node up to 256, a node under dist's deflation threshold (the re-fold
// fallback), a certainly-failing node, fleets with no Byzantine mass at
// all, and the quorums /v1/optimize accepts — random Raft (QPer, QVC) and
// PBFT (QEq, QPer, QVC, QVCT) sizings, an unsafe Raft sizing whose
// safe-and-live region is empty (gradient exactly 0 at U = 1) and a PBFT
// sizing whose Byzantine bound is at least its faulty bound.
func TestGradKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mixed := func(int) faultcurve.Profile {
		return faultcurve.Profile{PCrash: 0.02 + 0.1*rng.Float64(), PByz: 0.03 * rng.Float64()}
	}
	crash := func(int) faultcurve.Profile { return faultcurve.Crash(0.02 + 0.15*rng.Float64()) }
	type problem struct {
		name string
		p    HardeningProblem
	}
	var problems []problem
	for _, n := range []int{1, 2, 5, 25, 64} {
		problems = append(problems,
			problem{fmt.Sprintf("pbft mixed n=%d", n), gradProblem(n, true, mixed)},
			problem{fmt.Sprintf("raft crash-only n=%d", n), gradProblem(n, false, crash)},
			problem{fmt.Sprintf("raft mixed n=%d", n), gradProblem(n, false, mixed)},
			problem{fmt.Sprintf("pbft crash-only n=%d", n), gradProblem(n, true, crash)},
		)
	}
	problems = append(problems,
		problem{"raft crash-only n=256", gradProblem(256, false, crash)},
		problem{"pbft mixed n=256", gradProblem(256, true, mixed)},
		problem{"node below the deflation threshold", gradProblem(7, true, func(i int) faultcurve.Profile {
			if i == 2 {
				return faultcurve.Profile{PCrash: 0.3, PByz: 0.1}
			}
			return mixed(i)
		})},
		problem{"certain-failure node", gradProblem(5, false, func(i int) faultcurve.Profile {
			if i == 0 {
				return faultcurve.Crash(1)
			}
			return crash(i)
		})},
	)
	unsafeRaft := core.Raft{NNodes: 6, QPer: 2, QVC: 3}
	wideByz := core.PBFT{NNodes: 7, QEq: 6, QPer: 6, QVC: 6, QVCT: 3}
	if safe, _ := unsafeRaft.Regions(); safe.Byz >= 0 {
		t.Fatalf("%s has a non-empty safe region %+v", unsafeRaft.Name(), safe)
	}
	safe, live := wideByz.Regions()
	if r := safe.Intersect(live); r.Faulty < 0 || r.Byz < r.Faulty {
		t.Fatalf("%s: safe-and-live region %+v is empty or has β < κ", wideByz.Name(), r)
	}
	problems = append(problems,
		problem{"unsafe raft sizing", gradProblemFor(unsafeRaft, mixed)},
		problem{"pbft sizing with β >= κ", gradProblemFor(wideByz, mixed)},
	)
	for k := 0; k < 40; k++ {
		n := 1 + rng.Intn(12)
		if k%10 == 0 {
			n = 25
		}
		q := func() int { return 1 + rng.Intn(n) }
		var m core.CountModel = core.Raft{NNodes: n, QPer: q(), QVC: q()}
		if k%2 == 1 {
			m = core.PBFT{NNodes: n, QEq: q(), QPer: q(), QVC: q(), QVCT: q()}
		}
		draw := mixed
		if k%4 == 2 {
			draw = crash
		}
		problems = append(problems, problem{fmt.Sprintf("random %s", m.Name()), gradProblemFor(m, draw)})
	}
	for _, tc := range problems {
		if err := tc.p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := len(tc.p.Fleet)
		g := newHardeningGrad(tc.p)
		got, ref, want := make([]float64, n), make([]float64, n), make([]float64, n)
		trials := 4
		if n == 256 {
			trials = 2 // each oracle call is 256 joint builds
		}
		for trial := 0; trial < trials; trial++ {
			// Spend 0 on the first trial (base probabilities, where the
			// special nodes are special), a random split after.
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(min(trial, 1)) * rng.Float64() * tc.p.Budget / float64(n)
			}
			g.grad(x, got)
			u := math.Max(1-g.loo.Mass(), unavailFloor)
			if uEval := math.Max(1-tc.p.Eval(x).SafeAndLive, unavailFloor); u != uEval {
				t.Errorf("%s trial %d: gradient's U %.17g, Eval's %.17g", tc.name, trial, u, uEval)
			}
			oracles := []struct {
				name string
				grad func(HardeningProblem, []float64, []float64) float64
				out  []float64
			}{{"table kernel", refHardeningGrad, ref}, {"closure oracle", oracleGrad, want}}
			if n == 256 {
				oracles = oracles[:1]
			}
			for _, o := range oracles {
				uo := o.grad(tc.p, x, o.out)
				for i, w := range o.out {
					a, b := got[i]*u, w*uo
					if diff := math.Abs(a - b); !(diff <= 1e-12*math.Abs(b)) {
						t.Errorf("%s trial %d coord %d: %v·U, %s %v·U (relative Δ %.3g)", tc.name, trial, i, a, o.name, b, diff/math.Abs(b))
					}
				}
			}
			if tc.p.Model == core.CountModel(unsafeRaft) {
				if u := logUnavail(tc.p.Eval(x)); u != 0 {
					t.Errorf("%s: ln U = %v, want 0 (U = 1)", tc.name, u)
				}
				for i, g := range got {
					if g != 0 {
						t.Errorf("%s trial %d coord %d: %v, want exactly 0", tc.name, trial, i, g)
					}
				}
			}
		}
	}
}

// TestGradAllocations pins what the per-objective tables buy: a warm Grad
// allocates nothing (it was three slices a call), so a solve's allocations
// do not depend on how many probes its line searches spend — the same
// solve under the 64-probe bisection oracle allocates as much.
func TestGradAllocations(t *testing.T) {
	p := exemplarProblem()
	obj := p.Objective()
	x := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	out := make([]float64, len(x))
	obj.Grad(x, out) // size the workspace
	if n := testing.AllocsPerRun(100, func() { obj.Grad(x, out) }); n != 0 {
		t.Errorf("steady-state Grad allocates %v/op, want 0", n)
	}

	opts := Options{GapTolerance: 1e-9}
	var grads [2]int
	solve := func(k int, rule stepRule) func() {
		return func() {
			sol, err := awayStepFrankWolfe(p.Objective(), p.Polytope(), opts, rule)
			if err != nil {
				t.Fatal(err)
			}
			grads[k] = sol.GradEvaluations
		}
	}
	few := testing.AllocsPerRun(5, solve(0, exactStep))
	many := testing.AllocsPerRun(5, solve(1, bisectStep))
	if grads[1] < 4*grads[0] {
		t.Fatalf("the oracle line search made %d gradient calls to exactStep's %d; the comparison needs them far apart", grads[1], grads[0])
	}
	// The two rules resolve γ differently, so their active sets may differ
	// by a vertex or two; a probe that allocated would show as hundreds.
	if many > few+8 {
		t.Errorf("a solve with %d gradient calls allocates %v, one with %d allocates %v: allocations grow with probes", grads[0], few, grads[1], many)
	}
}

// BenchmarkHardeningGrad times one analytic gradient — a fold of the
// fleet into the safe-and-live region's table, its mass, and per
// coordinate one O(κ) deflation and the two edge sums — at the served size
// and at two large ones.
func BenchmarkHardeningGrad(b *testing.B) {
	for _, n := range []int{5, 25, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p := gradProblem(n, false, func(int) faultcurve.Profile { return servedProfile(rng) })
			obj := p.Objective()
			x, out := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = p.Budget / float64(n)
			}
			obj.Grad(x, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj.Grad(x, out)
			}
		})
	}
}
