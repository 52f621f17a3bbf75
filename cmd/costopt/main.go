// Command costopt searches hardware tiers for the cheapest Raft fleet
// meeting a reliability target — the paper's spot-instance economics —
// and, with a budget, splits hardening spend across the chosen fleet with
// the projection-free (Frank-Wolfe) optimizer.
//
// Usage:
//
//	costopt -target 3.5
//	costopt -target 4 -max 15 -mixed               # two-tier mixes too
//	costopt -target 3.5 -budget 1.0                # harden the chosen fleet
//	costopt -tiers tiers.json -target 4 -mixed     # custom tier table
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/inputcheck"
	"repro/internal/optimize"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "costopt:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("costopt", flag.ContinueOnError)
	var (
		target    = fs.Float64("target", 3.5, "required nines of safe-and-live reliability")
		maxN      = fs.Int("max", 11, "maximum fleet size")
		mixed     = fs.Bool("mixed", false, "allow two-tier mixed fleets")
		carbon    = fs.Bool("carbon", false, "minimise carbon instead of dollars")
		tiersFile = fs.String("tiers", "", "JSON file defining the tier table (default: built-in three tiers)")
		budget    = fs.Float64("budget", 0, "hardening budget to split across the chosen fleet's nodes (0 = off)")
		iters     = fs.Int("iters", 500, "Frank-Wolfe iteration bound for -budget mode")
		curveF    = fs.Float64("curve-floor", 0.1, "hardening floor: irreducible fraction of each node's fault probability")
		curveS    = fs.Float64("curve-scale", 0.25, "hardening e-folding: spend that reduces the reducible share by e")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the FlagSet has printed the usage
		}
		return err
	}

	// Shared with the probconsd request validators (internal/inputcheck).
	checks := []error{
		inputcheck.CheckNonNegative("target", *target),
		inputcheck.CheckClusterSize(*maxN),
		inputcheck.CheckIterations(*iters),
	}
	if *budget != 0 {
		checks = append(checks,
			inputcheck.CheckBudget("budget", *budget),
			inputcheck.CheckProb("curve-floor", *curveF),
			inputcheck.CheckPositive("curve-scale", *curveS))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}

	tiers := []cost.Tier{
		{Name: "dedicated", PricePerHour: 1.00, Profile: faultcurve.Crash(0.01), CarbonPerHour: 10},
		{Name: "spot", PricePerHour: 0.10, Profile: faultcurve.Crash(0.08), CarbonPerHour: 8},
		{Name: "refurb", PricePerHour: 0.25, Profile: faultcurve.Crash(0.04), CarbonPerHour: 3},
	}
	if *tiersFile != "" {
		loaded, err := cost.LoadTiers(*tiersFile)
		if err != nil {
			return err
		}
		tiers = loaded
	}
	obj := cost.MinimizePrice
	if *carbon {
		obj = cost.MinimizeCarbon
	}
	o := cost.Optimizer{Tiers: tiers, MaxNodes: *maxN, Objective: obj}

	fmt.Fprintf(out, "target: %.2f nines (S&L >= %s), tiers:\n", *target, dist.FormatPercent(dist.FromNines(*target), 2))
	for _, t := range tiers {
		fmt.Fprintf(out, "  %-10s $%.2f/h  carbon %.0f  p_u=%.3g\n", t.Name, t.PricePerHour, t.CarbonPerHour, t.Profile.PFail())
	}

	search := o.CheapestSingleTier
	if *mixed {
		search = o.CheapestMixed
	}
	plan, err := search(*target)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nbest plan: %v\n", plan)
	fmt.Fprintf(out, "  %.2f nines, $%.3f/h, carbon %.1f/h\n",
		plan.Result.Nines(), plan.PricePerHour(), plan.CarbonPerHour())

	if *budget == 0 {
		return nil
	}

	// Hardening mode: split the budget across the chosen fleet's nodes
	// with away-step Frank-Wolfe over the budget-knapsack polytope.
	fleet := plan.Fleet()
	curves := make([]faultcurve.Response, len(fleet))
	for i, n := range fleet {
		curves[i] = faultcurve.HardeningResponse(n.Profile.PFail(), *curveF, *curveS)
	}
	alloc, err := optimize.SolveHardening(optimize.HardeningProblem{
		Fleet:  fleet,
		Model:  plan.Model,
		Curves: curves,
		Budget: *budget,
	}, optimize.Options{MaxIterations: *iters})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nhardening budget %.3f across %d nodes (floor %.0f%%, scale %.2f):\n",
		*budget, len(fleet), *curveF*100, *curveS)
	for i, n := range fleet {
		fmt.Fprintf(out, "  %-14s p=%.4f -> %.4f  spend %.4f\n",
			n.Name, n.Profile.PFail(), curves[i].Prob(alloc.Spend[i]), alloc.Spend[i])
	}
	fmt.Fprintf(out, "  base      %.3f nines\n", alloc.Base.Nines())
	fmt.Fprintf(out, "  uniform   %.3f nines (even split)\n", alloc.Uniform.Nines())
	fmt.Fprintf(out, "  optimized %.3f nines (+%.3f over uniform; FW gap %.2g, %d iterations)\n",
		alloc.Optimized.Nines(), alloc.NinesGainedOverUniform(), alloc.Gap, alloc.Iterations)
	return nil
}
