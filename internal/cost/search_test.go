package cost

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

// exemplarTiers is the cmd/costopt default table, duplicated here as the
// instance the search is pinned on.
func exemplarTiers() []Tier {
	return []Tier{
		{Name: "dedicated", PricePerHour: 1.00, Profile: faultcurve.Crash(0.01), CarbonPerHour: 10},
		{Name: "spot", PricePerHour: 0.10, Profile: faultcurve.Crash(0.08), CarbonPerHour: 8},
		{Name: "refurb", PricePerHour: 0.25, Profile: faultcurve.Crash(0.04), CarbonPerHour: 3},
	}
}

func (o Optimizer) objective(p Plan) float64 {
	if o.Objective == MinimizeCarbon {
		return p.CarbonPerHour()
	}
	return p.PricePerHour()
}

// gridCheapestMixed is the oracle for Optimizer.cheapest: the exhaustive
// scan CheapestMixed was until PR 20, one engine run per cell of the grid,
// the incumbent replaced only on a strictly lower cost.
func gridCheapestMixed(o Optimizer, targetNines float64) (Plan, error) {
	target := dist.FromNines(targetNines)
	var best *Plan
	consider := func(specs []Spec) {
		plan, ok := o.evalPlan(specs, target)
		if !ok {
			return
		}
		if best == nil || o.objective(plan) < o.objective(*best) {
			p := plan
			best = &p
		}
	}
	for i, a := range o.Tiers {
		for n := 1; n <= o.MaxNodes; n++ {
			consider([]Spec{{Tier: a, Count: n}})
		}
		for j := i + 1; j < len(o.Tiers); j++ {
			b := o.Tiers[j]
			for na := 1; na < o.MaxNodes; na++ {
				for nb := 1; na+nb <= o.MaxNodes; nb++ {
					consider([]Spec{{Tier: a, Count: na}, {Tier: b, Count: nb}})
				}
			}
		}
	}
	if best == nil {
		return Plan{}, fmt.Errorf("cost: no fleet of <= %d nodes reaches %.2f nines", o.MaxNodes, targetNines)
	}
	return *best, nil
}

// searchMixed runs CheapestMixed and counts the exact engine runs it
// spends (every candidate evaluation is one joint-distribution build).
func searchMixed(o Optimizer, targetNines float64) (plan Plan, engineRuns int, err error) {
	before := dist.JointBuilds()
	plan, err = o.CheapestMixed(targetNines)
	return plan, int(dist.JointBuilds() - before), err
}

// rank returns how many candidates the search orders before the plan.
func rank(t *testing.T, o Optimizer, plan Plan) int {
	t.Helper()
	cands := o.candidates(true)
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	for i, c := range cands {
		if reflect.DeepEqual(o.specs(c), plan.Specs) {
			return i
		}
	}
	t.Fatalf("plan %v is not a candidate", plan)
	return -1
}

// TestCheapestMixedLadder pins the search on 56 instances — price and
// carbon x MaxNodes {9, 11, 15, 25} x seven targets on the exemplar tiers:
// the plan is the exhaustive grid's, bit for bit, and the engine runs
// spent are one per candidate up to and including the answer (all of them
// when nothing reaches the target). -v logs the rows of DESIGN.md's table.
func TestCheapestMixedLadder(t *testing.T) {
	// Engine runs as recorded for five rows of DESIGN.md's table.
	type instance struct {
		obj    Objective
		max    int
		target float64
	}
	pinned := map[instance]int{
		{MinimizePrice, 11, 3.5}: 22,
		{MinimizePrice, 9, 4}:    50,
		{MinimizePrice, 15, 6}:   139,
		{MinimizePrice, 25, 12}:  588,
		{MinimizeCarbon, 11, 3}:  10,
	}
	infeasible := 0
	for _, obj := range []Objective{MinimizePrice, MinimizeCarbon} {
		for _, max := range []int{9, 11, 15, 25} {
			for _, target := range []float64{2.5, 3, 3.5, 4, 4.5, 6, 12} {
				o := Optimizer{Tiers: exemplarTiers(), MaxNodes: max, Objective: obj}
				name := fmt.Sprintf("%s, max %d, %v nines", [...]string{"price", "carbon"}[obj], max, target)
				want, wantErr := gridCheapestMixed(o, target)
				got, runs, err := searchMixed(o, target)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: search err %v, grid err %v", name, err, wantErr)
				}
				cells := len(o.candidates(true))
				if err != nil {
					t.Logf("%s: %d candidates, %d engine runs, none feasible", name, cells, runs)
					infeasible++
					if runs != cells {
						t.Errorf("%s: infeasible after %d engine runs, want all %d candidates", name, runs, cells)
					}
					continue
				}
				t.Logf("%s: %d candidates, %d engine runs, %v", name, cells, runs, got)
				if got.String() != want.String() || got.Result != want.Result {
					t.Errorf("%s: search %v %+v, grid %v %+v", name, got, got.Result, want, want.Result)
				}
				if r := rank(t, o, got); runs != r+1 || runs > cells {
					t.Errorf("%s: %d engine runs for a plan ranked %d of %d candidates", name, runs, r, cells)
				}
				if pin, ok := pinned[instance{obj, max, target}]; ok && runs != pin {
					t.Errorf("%s: %d engine runs, recorded %d", name, runs, pin)
				}
			}
		}
	}
	if infeasible != 4 {
		t.Errorf("%d infeasible instances, want the four 12-nines ones at max 9 and 11", infeasible)
	}
}

// TestCheapestMixedMatchesGrid: on the costopt exemplar the search
// returns the exhaustive grid's plan for several targets while evaluating
// fewer fleets than the grid has cells.
func TestCheapestMixedMatchesGrid(t *testing.T) {
	for _, target := range []float64{2.5, 3.5, 4.0, 4.5} {
		o := Optimizer{Tiers: exemplarTiers(), MaxNodes: 11}
		grid, err := gridCheapestMixed(o, target)
		if err != nil {
			t.Fatal(err)
		}
		plan, runs, err := searchMixed(o, target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if plan.String() != grid.String() || plan.Result != grid.Result {
			t.Errorf("target %v: search %v, grid %v", target, plan, grid)
		}
		if cells := len(o.candidates(true)); runs >= cells {
			t.Errorf("target %v: %d engine runs for a grid of %d cells", target, runs, cells)
		}
	}
}

// TestCheapestMixedUnreachableLikeGrid mirrors the grid oracle's
// error behaviour.
func TestCheapestMixedUnreachableLikeGrid(t *testing.T) {
	o := Optimizer{Tiers: exemplarTiers(), MaxNodes: 3}
	if _, err := o.CheapestMixed(12); err == nil {
		t.Fatal("want error for an unreachable target")
	}
	if _, err := (Optimizer{}).CheapestMixed(3); err == nil {
		t.Fatal("want error for an empty optimizer")
	}
	if _, err := (Optimizer{Tiers: exemplarTiers(), MaxNodes: -1}).CheapestMixed(3); err == nil {
		t.Fatal("want error for a negative MaxNodes")
	}
}

// TestCheapestMixedCarbonMatchesGrid checks the search follows the
// selected objective: under MinimizeCarbon the answer is the carbon-optimal
// grid answer, not the price-optimal one.
func TestCheapestMixedCarbonMatchesGrid(t *testing.T) {
	o := Optimizer{Tiers: exemplarTiers(), MaxNodes: 9, Objective: MinimizeCarbon}
	grid, err := gridCheapestMixed(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.CheapestMixed(3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CarbonPerHour() != grid.CarbonPerHour() || plan.String() != "5xrefurb ($1.250/h, S&L 99.94%)" {
		t.Errorf("grid %v (carbon %v), search %v (carbon %v)", grid, grid.CarbonPerHour(), plan, plan.CarbonPerHour())
	}
}

func TestParseTiers(t *testing.T) {
	good := `[
		{"name": "dedicated", "price_per_hour": 1.0, "p_crash": 0.01, "carbon_per_hour": 10},
		{"name": "spot", "price_per_hour": 0.1, "p_crash": 0.08, "p_byz": 0.001}
	]`
	tiers, err := ParseTiers([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[1].Profile.PByz != 0.001 || tiers[0].CarbonPerHour != 10 {
		t.Fatalf("parsed %+v", tiers)
	}
	for name, bad := range map[string]string{
		"not json":        `{`,
		"empty":           `[]`,
		"no name":         `[{"price_per_hour": 1, "p_crash": 0.1}]`,
		"duplicate":       `[{"name":"a","price_per_hour":1,"p_crash":0.1},{"name":"a","price_per_hour":2,"p_crash":0.1}]`,
		"zero price":      `[{"name":"a","price_per_hour":0,"p_crash":0.1}]`,
		"bad profile":     `[{"name":"a","price_per_hour":1,"p_crash":0.9,"p_byz":0.2}]`,
		"negative carbon": `[{"name":"a","price_per_hour":1,"p_crash":0.1,"carbon_per_hour":-1}]`,
	} {
		if _, err := ParseTiers([]byte(bad)); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestLoadTiers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiers.json")
	if err := os.WriteFile(path, []byte(`[{"name":"a","price_per_hour":1,"p_crash":0.1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	tiers, err := LoadTiers(path)
	if err != nil || len(tiers) != 1 {
		t.Fatalf("tiers %v, err %v", tiers, err)
	}
	if _, err := LoadTiers(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for a missing file")
	}
}
