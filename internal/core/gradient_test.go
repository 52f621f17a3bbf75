package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// refereeGradient is Gradient's 2^D referee. A shock's derivative is
// AnalyzeDomainsConditioned at s = 1 minus at s = 0 (SafeAndLive is
// linear in each shock). A node's edges are the shock-subset-weighted sum
// of each subset fleet's independent leave-one-out edges (the fleet with
// the subset's members elevated, one dist.RegionLeaveOneOut over all of
// it), a shocked member's carried to its base profile through
// elevatedEdges.
func refereeGradient(t testing.TB, fleet Fleet, m CountModel, domains DomainSet) (edges [][2]float64, shocks []float64) {
	t.Helper()
	var q Query
	if err := q.resolveValid(fleet, m, domains); err != nil {
		t.Fatal(err)
	}
	l := &q.layout
	member := l.members(len(fleet))
	edges, shocks = make([][2]float64, len(fleet)), make([]float64, len(domains))
	r := modelRegions(m)[2]
	tri := make([]dist.TriState, len(fleet))
	var loo dist.RegionLeaveOneOut
	for mask := 0; mask < 1<<len(l.act); mask++ {
		weight := 1.0
		shocked := make(map[int]bool)
		for bit, di := range l.act {
			s := dist.Clamp01(domains[di].ShockProb)
			if mask&(1<<bit) != 0 {
				weight *= s
				shocked[di] = true
			} else {
				weight *= 1 - s
			}
		}
		for i, n := range fleet {
			tri[i] = n.Profile.TriState()
			if shocked[member[i]] {
				tri[i] = domains[member[i]].Elevate(n.Profile).TriState()
			}
		}
		loo.Reset(tri, r, len(tri), nil, nil)
		for i := range fleet {
			f, z := loo.Edges(i)
			if shocked[member[i]] {
				f, z = elevatedEdges(&domains[member[i]], fleet[i].Profile, f, z)
			}
			edges[i][0] += weight * f
			edges[i][1] += weight * z
		}
	}
	for _, di := range l.act {
		at := func(s float64) float64 {
			ds := append(DomainSet(nil), domains...)
			ds[di].ShockProb = s
			res, err := AnalyzeDomainsConditioned(fleet, m, ds)
			if err != nil {
				t.Fatal(err)
			}
			return res.SafeAndLive
		}
		shocks[di] = at(1) - at(0)
	}
	return edges, shocks
}

// gradErr tracks the largest relative errors of Gradient's derivatives
// against the referee's.
type gradErr struct{ shock, node float64 }

// check runs Gradient on e and the referee on the same query. A shock
// derivative must be within 1e-6 relative of the referee's, or within
// shockFloor, and each of a node's edges within 1e-10 of the node's larger
// referee edge, or within nodeFloor. SafeAndLive must be == AnalyzeDomains'
// on a cold evaluator.
func (g *gradErr) check(t *testing.T, tag string, e *Evaluator, fleet Fleet, m CountModel, domains DomainSet, shockFloor, nodeFloor float64) {
	t.Helper()
	edges, shocks := make([][2]float64, len(fleet)), make([]float64, len(domains))
	var q Query
	if err := q.Resolve(fleet, m, domains); err != nil {
		t.Fatal(err)
	}
	sl := e.Gradient(&q, edges, shocks)
	cold, err := NewEvaluator().AnalyzeDomains(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	if sl != cold.SafeAndLive {
		t.Errorf("%s: SafeAndLive %.17g, AnalyzeDomains %.17g", tag, sl, cold.SafeAndLive)
	}
	wantEdges, wantShocks := refereeGradient(t, fleet, m, domains)
	for d, w := range wantShocks {
		diff := math.Abs(shocks[d] - w)
		if diff > shockFloor {
			g.shock = max(g.shock, diff/math.Abs(w))
		}
		if !(diff <= 1e-6*math.Abs(w) || diff <= shockFloor) {
			t.Errorf("%s: shock %d derivative %.17g, referee %.17g", tag, d, shocks[d], w)
		}
	}
	for i, w := range wantEdges {
		scale := max(math.Abs(w[0]), math.Abs(w[1]))
		for c := range w {
			diff := math.Abs(edges[i][c] - w[c])
			if diff > nodeFloor {
				g.node = max(g.node, diff/scale)
			}
			if !(diff <= 1e-10*scale || diff <= nodeFloor) {
				t.Errorf("%s: node %d edges %v, referee %v", tag, i, edges[i], w)
			}
		}
	}
}

// TestGradientMatchesReferee pins Gradient against its 2^D referee on 80
// seeded fleets: Raft and textbook PBFT, N 5–16, 1–4 domains with some
// nodes independent, p_crash and p_byz up to 5 %, shocks up to 0.3 and
// multipliers 1–300, so that elevated profiles cross Elevate's
// renormalising branch; every fifth fleet draws its profiles from 2–5 %, so
// that most of its members do. A second query moves one domain on the
// same, warm evaluator.
func TestGradientMatchesReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var g gradErr
	renormalised := 0
	for iter := 0; iter < 80; iter++ {
		n, d := 5+rng.Intn(12), 1+rng.Intn(4)
		domains := make(DomainSet, d)
		for j := range domains {
			domains[j] = faultcurve.Domain{Name: fmt.Sprintf("zone-%d", j), ShockProb: 0.3 * rng.Float64(),
				CrashMultiplier: 1 + 299*rng.Float64(), ByzMultiplier: 1 + 299*rng.Float64()}
		}
		fleet := make(Fleet, n)
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: 0.05 * rng.Float64(), PByz: 0.05 * rng.Float64()}
			if iter%5 == 0 { // most members renormalised
				fleet[i].Profile = faultcurve.Profile{PCrash: 0.02 + 0.03*rng.Float64(), PByz: 0.02 + 0.03*rng.Float64()}
			}
			if j := rng.Intn(d + 1); j < d {
				fleet[i].Domain = domains[j].Name
			}
		}
		for i, node := range fleet {
			for _, dom := range domains {
				if node.Domain == dom.Name && fleet[i].Profile.PCrash*dom.CrashMultiplier+fleet[i].Profile.PByz*dom.ByzMultiplier > 1 {
					renormalised++
				}
			}
		}
		var m CountModel = NewRaft(n)
		if iter%2 == 1 {
			m = NewPBFTForN(n)
		}
		e := NewEvaluator()
		g.check(t, fmt.Sprintf("iter %d %s", iter, m.Name()), e, fleet, m, domains, 0, 0)
		moved := append(DomainSet(nil), domains...)
		moved[rng.Intn(d)].ShockProb = rng.Float64()
		g.check(t, fmt.Sprintf("iter %d %s, one shock moved", iter, m.Name()), e, fleet, m, moved, 0, 0)
	}
	if renormalised == 0 {
		t.Fatal("no member reached Elevate's renormalising branch")
	}
	t.Logf("%d renormalised members; largest relative error: shocks %.3g, nodes %.3g", renormalised, g.shock, g.node)
}

// FuzzDomainGradient drives Gradient on FuzzDomainEngine's shapes, capped
// at 12 nodes: each node in one of 1 to 4 domains or the independent
// remainder, probabilities scaled by the fuzzer, certain crashes and
// certain Byzantine nodes planted, shocks anywhere in [0, 1] and
// multipliers up to 20, under majority Raft, textbook PBFT and a q/qt PBFT
// sizing. Cold and after each domain in turn moves, on one evaluator,
// every shock and node derivative must agree with the 2^D referee
// (refereeGradient) as TestGradientMatchesReferee requires, or within
// floors for what neither side can resolve: the referee's shock
// derivative subtracts two answers near 1 (1e-14), and cells below the
// fold's flush threshold τ drop out of either side's edges (1e-250).
func FuzzDomainGradient(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(3), 0.05, 0.005, uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(12), uint8(4), 0.3, 0.1, uint8(5), uint8(3), uint8(4))
	f.Add(int64(3), uint8(11), uint8(1), 0.5, 0.5, uint8(11), uint8(1), uint8(2))
	f.Add(int64(4), uint8(7), uint8(2), 1e-30, 0.2, uint8(2), uint8(9), uint8(1))
	f.Add(int64(5), uint8(1), uint8(4), 0.9, 0.9, uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, nDomains uint8, crashScale, byzScale float64, certain, q, qt uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+int(size)%12, 1+int(nDomains)%4
		scale := func(x float64) float64 {
			if !(x > 0) { // NaN and negatives too
				return 0
			}
			return min(x, 0.5)
		}
		cs, bs := scale(crashScale), scale(byzScale)
		domains := make(DomainSet, d)
		for j := range domains {
			domains[j] = faultcurve.Domain{Name: fmt.Sprintf("zone-%d", j), ShockProb: rng.Float64(),
				CrashMultiplier: 20 * rng.Float64(), ByzMultiplier: 20 * rng.Float64()}
		}
		fleet := make(Fleet, n)
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: cs * rng.Float64(), PByz: bs * rng.Float64()}
			if j := rng.Intn(d + 1); j < d {
				fleet[i].Domain = domains[j].Name
			}
		}
		for k := 0; k < int(certain)%(n+1); k++ {
			fleet[rng.Intn(n)].Profile = [...]faultcurve.Profile{{PCrash: 1}, {PByz: 1}}[rng.Intn(2)]
		}
		qq := n/2 + 1 + int(q)%(n-n/2)
		models := []CountModel{NewRaft(n), NewPBFTForN(n), PBFT{NNodes: n, QEq: qq, QPer: qq, QVC: qq, QVCT: 1 + int(qt)%qq}}
		e := NewEvaluator()
		var g gradErr
		for _, m := range models {
			g.check(t, m.Name()+" cold", e, fleet, m, domains, 1e-14, 1e-250)
			for j := range domains {
				ds := append(DomainSet(nil), domains...)
				ds[j].ShockProb, ds[j].CrashMultiplier = rng.Float64(), 20*rng.Float64()
				g.check(t, fmt.Sprintf("%s domain %d moved", m.Name(), j), e, fleet, m, ds, 1e-14, 1e-250)
			}
		}
	})
}

// TestElevatedEdgesMatchElevate checks the Jacobian the referee shares with
// Gradient against Elevate itself. SafeAndLive is linear in the elevated
// tri-state, A = const − f·pc_e − (f + z)·pb_e for a member's elevated
// edges (f, z), so the base-profile edges elevatedEdges returns must be
// A's central differences through Elevate: ∂A/∂p_crash = −faulty and
// ∂A/∂p_byz = −faulty − byz. Profiles and multipliers cover both of
// Elevate's branches; a profile within a few steps of the renormalising
// boundary, where A has a kink, is skipped.
func TestElevatedEdgesMatchElevate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts := [2]int{}
	for iter := 0; iter < 2000; iter++ {
		d := faultcurve.Domain{Name: "zone", CrashMultiplier: 300 * rng.Float64(), ByzMultiplier: 300 * rng.Float64()}
		p := faultcurve.Profile{PCrash: 0.01 * rng.Float64(), PByz: 0.01 * rng.Float64()}
		f, z := rng.Float64(), rng.Float64()
		const h = 1e-9
		total := p.PCrash*d.CrashMultiplier + p.PByz*d.ByzMultiplier
		if math.Abs(total-1) < 1e-6 {
			continue
		}
		A := func(q faultcurve.Profile) float64 {
			e := d.Elevate(q)
			return -f*e.PCrash - (f+z)*e.PByz
		}
		diff := func(dc, db float64) float64 {
			hi := faultcurve.Profile{PCrash: p.PCrash + dc, PByz: p.PByz + db}
			lo := faultcurve.Profile{PCrash: p.PCrash - dc, PByz: p.PByz - db}
			return (A(hi) - A(lo)) / (2 * h)
		}
		faulty, byz := elevatedEdges(&d, p, f, z)
		for _, c := range []struct{ got, want float64 }{{-faulty, diff(h, 0)}, {-faulty - byz, diff(0, h)}} {
			if math.Abs(c.got-c.want) > 1e-5*max(1, d.CrashMultiplier, d.ByzMultiplier) {
				t.Fatalf("profile %+v, multipliers %v/%v: derivative %.10g, central difference through Elevate %.10g", p, d.CrashMultiplier, d.ByzMultiplier, c.got, c.want)
			}
		}
		counts[min(1, int(total))]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("branches covered: %d scaled, %d renormalised; want both", counts[0], counts[1])
	}
}
