package cost

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/faultcurve"
)

func tiers() (reliable, spot Tier) {
	reliable = Tier{Name: "reliable", PricePerHour: 1.0, Profile: faultcurve.Crash(0.01), CarbonPerHour: 10}
	spot = Tier{Name: "spot", PricePerHour: 0.1, Profile: faultcurve.Crash(0.08), CarbonPerHour: 2}
	return
}

func TestPlanAccounting(t *testing.T) {
	reliable, spot := tiers()
	p := Plan{Specs: []Spec{{Tier: reliable, Count: 2}, {Tier: spot, Count: 3}}}
	if p.N() != 5 {
		t.Errorf("N=%d", p.N())
	}
	if got := p.PricePerHour(); math.Abs(got-2.3) > 1e-12 {
		t.Errorf("price=%v", got)
	}
	if got := p.CarbonPerHour(); math.Abs(got-26) > 1e-12 {
		t.Errorf("carbon=%v", got)
	}
	fleet := p.Fleet()
	if len(fleet) != 5 || fleet[0].Profile.PCrash != 0.01 || fleet[4].Profile.PCrash != 0.08 {
		t.Errorf("fleet composition wrong: %+v", fleet)
	}
}

// TestE2SpotFleetCheaper reproduces the paper's headline economics: a
// nine-node spot fleet delivers the three-node reliable fleet's rendered
// reliability (both print as 99.97%) at a third of the cost. The exact
// values differ in the 5th decimal (99.9702% vs 99.9686%), so the target is
// the paper's printed 99.97% rounded down to its displayed precision.
func TestE2SpotFleetCheaper(t *testing.T) {
	reliable, spot := tiers()
	o := Optimizer{Tiers: []Tier{reliable, spot}, MaxNodes: 9}

	small, ok := o.evalPlan([]Spec{{Tier: reliable, Count: 3}}, 0)
	if !ok {
		t.Fatal("eval failed")
	}
	// Both fleets print as 99.97%; target the common displayed floor.
	if dist.FormatPercent(small.Result.SafeAndLive, 2) != "99.97%" {
		t.Fatalf("small fleet = %v", small.Result.SafeAndLive)
	}
	target := dist.Nines(0.99965)

	best, err := o.CheapestSingleTier(target)
	if err != nil {
		t.Fatal(err)
	}
	if best.Specs[0].Tier.Name != "spot" || best.N() != 9 {
		t.Fatalf("best plan = %v, want 9x spot", best)
	}
	if dist.FormatPercent(best.Result.SafeAndLive, 2) != "99.97%" {
		t.Errorf("spot fleet renders as %v, want the paper's 99.97%%",
			dist.FormatPercent(best.Result.SafeAndLive, 2))
	}
	saving := small.PricePerHour() / best.PricePerHour()
	if math.Abs(saving-10.0/3.0) > 1e-9 {
		t.Errorf("saving = %v, paper says ~3x (exactly 10/3 here)", saving)
	}
}

func TestCheapestSingleTierUnreachable(t *testing.T) {
	_, spot := tiers()
	o := Optimizer{Tiers: []Tier{spot}, MaxNodes: 3}
	if _, err := o.CheapestSingleTier(9); err == nil {
		t.Error("9 nines from 3 spot nodes must be impossible")
	}
}

func TestCheapestMixedAtLeastAsGoodAsSingle(t *testing.T) {
	reliable, spot := tiers()
	o := Optimizer{Tiers: []Tier{reliable, spot}, MaxNodes: 9}
	for _, target := range []float64{2.5, 3.5, 4.5} {
		single, errS := o.CheapestSingleTier(target)
		mixed, errM := o.CheapestMixed(target)
		if errS != nil {
			// If single fails, mixed may still succeed; skip comparison.
			continue
		}
		if errM != nil {
			t.Fatalf("mixed failed where single succeeded: %v", errM)
		}
		if mixed.PricePerHour() > single.PricePerHour()+1e-12 {
			t.Errorf("target %v nines: mixed %v costs more than single %v",
				target, mixed, single)
		}
		if mixed.Result.Nines() < target {
			t.Errorf("mixed plan misses target: %v < %v", mixed.Result.Nines(), target)
		}
	}
}

func TestCheapestMixedUnreachable(t *testing.T) {
	_, spot := tiers()
	o := Optimizer{Tiers: []Tier{spot}, MaxNodes: 2}
	if _, err := o.CheapestMixed(12); err == nil {
		t.Error("12 nines from 2 spot nodes must be impossible")
	}
}

func TestMinimizeCarbonObjective(t *testing.T) {
	// Make the carbon ordering the reverse of the price ordering.
	expensiveGreen := Tier{Name: "green", PricePerHour: 2, Profile: faultcurve.Crash(0.01), CarbonPerHour: 1}
	cheapDirty := Tier{Name: "dirty", PricePerHour: 0.5, Profile: faultcurve.Crash(0.01), CarbonPerHour: 50}
	byPrice := Optimizer{Tiers: []Tier{expensiveGreen, cheapDirty}, MaxNodes: 5}
	byCarbon := Optimizer{Tiers: []Tier{expensiveGreen, cheapDirty}, MaxNodes: 5, Objective: MinimizeCarbon}
	p1, err := byPrice.CheapestSingleTier(3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := byCarbon.CheapestSingleTier(3)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Specs[0].Tier.Name != "dirty" {
		t.Errorf("price objective picked %v", p1)
	}
	if p2.Specs[0].Tier.Name != "green" {
		t.Errorf("carbon objective picked %v", p2)
	}
}

func TestFrontierMonotonicOddSizes(t *testing.T) {
	_, spot := tiers()
	o := Optimizer{Tiers: []Tier{spot}, MaxNodes: 11}
	pts := o.Frontier(spot)
	if len(pts) != 11 {
		t.Fatalf("len=%d", len(pts))
	}
	// Odd sizes: reliability strictly improves with n (for p < 1/2).
	for _, step := range [][2]int{{1, 3}, {3, 5}, {5, 7}, {7, 9}, {9, 11}} {
		a, b := pts[step[0]-1], pts[step[1]-1]
		if b.Nines <= a.Nines {
			t.Errorf("nines(%d)=%v !> nines(%d)=%v", step[1], b.Nines, step[0], a.Nines)
		}
	}
	// Price is linear in n.
	if math.Abs(pts[8].PricePerHour-9*spot.PricePerHour) > 1e-12 {
		t.Errorf("price(9)=%v", pts[8].PricePerHour)
	}
}

func TestPlanString(t *testing.T) {
	reliable, _ := tiers()
	p, ok := (Optimizer{Tiers: []Tier{reliable}, MaxNodes: 3}).evalPlan([]Spec{{Tier: reliable, Count: 3}}, 0)
	if !ok {
		t.Fatal("eval failed")
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}
