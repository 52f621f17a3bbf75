// Command nines computes probabilistic safety/liveness guarantees for
// consensus deployments and regenerates the paper's tables.
//
// Usage:
//
//	nines -tables                 # print Table 1 and Table 2
//	nines -protocol raft -n 5 -p 0.02
//	nines -protocol pbft -n 7 -p 0.01
//	nines -protocol raft -n 7 -p 0.08 -upgrade 3 -upgrade-p 0.01
//	nines -protocol raft -n 9 -p 0.01 -zones 3 -shock 1e-4 -shock-crash-mult 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultcurve"
	"repro/internal/inputcheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nines:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nines", flag.ExitOnError)
	var (
		tables    = fs.Bool("tables", false, "print the paper's Table 1 and Table 2")
		sweep     = fs.Bool("sweep", false, "sweep quorum sizings and print the Pareto frontier")
		protocol  = fs.String("protocol", "raft", "raft or pbft")
		n         = fs.Int("n", 3, "cluster size")
		p         = fs.Float64("p", 0.01, "per-node fault probability")
		upgrade   = fs.Int("upgrade", 0, "number of nodes upgraded to -upgrade-p (heterogeneous fleets)")
		upgradeP  = fs.Float64("upgrade-p", 0.01, "fault probability of upgraded nodes")
		zones     = fs.Int("zones", 0, "spread the fleet round-robin across this many correlated failure domains (0 = independent failures)")
		shock     = fs.Float64("shock", 0, "per-zone common-cause shock probability")
		crashMult = fs.Float64("shock-crash-mult", 50, "crash-probability multiplier while a zone's shock is active")
		byzMult   = fs.Float64("shock-byz-mult", 1, "Byzantine-probability multiplier while a zone's shock is active")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	if *tables {
		return printTables(out)
	}
	// Shared with the probconsd request validator: the daemon and the CLI
	// reject the same inputs with the same messages.
	for _, err := range []error{
		inputcheck.CheckClusterSize(*n),
		inputcheck.CheckProb("p", *p),
		inputcheck.CheckNodeCount("upgrade", *upgrade, *n),
		inputcheck.CheckProb("upgrade-p", *upgradeP),
		inputcheck.CheckDomainCount(*zones),
		inputcheck.CheckProb("shock", *shock),
		inputcheck.CheckShockMultiplier("shock-crash-mult", *crashMult),
		inputcheck.CheckShockMultiplier("shock-byz-mult", *byzMult),
	} {
		if err != nil {
			return err
		}
	}
	if *sweep {
		return printSweep(out, *protocol, *n, *p)
	}
	var (
		fleet core.Fleet
		model core.CountModel
	)
	switch *protocol {
	case "raft":
		fleet = core.UniformCrashFleet(*n, *p)
		for i := 0; i < *upgrade && i < *n; i++ {
			fleet[i].Profile.PCrash = *upgradeP
		}
		model = core.NewRaft(*n)
		fmt.Fprintf(out, "%s, p_u=%.4g (%d upgraded to %.4g)\n", model.Name(), *p, *upgrade, *upgradeP)
	case "pbft":
		fleet = core.UniformByzFleet(*n, *p)
		model = core.NewPBFTForN(*n)
		fmt.Fprintf(out, "%s, p_u=%.4g\n", model.Name(), *p)
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	res, err := core.Analyze(fleet, model)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  independent: %s\n  %.2f nines safe-and-live\n", res, res.Nines())
	if *zones > 0 {
		domains := make(core.DomainSet, *zones)
		for z := range domains {
			domains[z] = faultcurve.Domain{
				Name:            fmt.Sprintf("zone-%d", z),
				ShockProb:       *shock,
				CrashMultiplier: *crashMult,
				ByzMultiplier:   *byzMult,
			}
		}
		for i := range fleet {
			fleet[i].Domain = domains[i%len(domains)].Name
		}
		dres, err := core.AnalyzeDomains(fleet, model, domains)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %d zones, shock=%.4g (crash ×%.4g, byz ×%.4g): %s\n  %.2f nines safe-and-live\n",
			*zones, *shock, *crashMult, *byzMult, dres, dres.Nines())
	}
	return nil
}

func printTables(out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: PBFT reliability, uniform p_u = 1%")
	fmt.Fprintln(w, "N\t|Qeq|\t|Qper|\t|Qvc|\t|Qvc_t|\tSafe\tLive\tSafe&Live")
	for _, r := range core.Table1() {
		m := r.Model
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			m.NNodes, m.QEq, m.QPer, m.QVC, m.QVCT,
			dist.FormatPercent(r.Safe, 2), dist.FormatPercent(r.Live, 2),
			dist.FormatPercent(r.SafeAndLive, 2))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 2: Raft reliability for uniform node failure p_u")
	fmt.Fprintln(w, "N\t|Qper|\t|Qvc|\tS&L p=1%\tS&L p=2%\tS&L p=4%\tS&L p=8%")
	for _, r := range core.Table2() {
		fmt.Fprintf(w, "%d\t%d\t%d", r.Model.NNodes, r.Model.QPer, r.Model.QVC)
		for _, cell := range core.FormatRow(r.SafeAndLive) {
			fmt.Fprintf(w, "\t%s", cell)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func printSweep(out io.Writer, protocol string, n int, p float64) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	switch protocol {
	case "raft":
		sizings, err := core.SweepRaftQuorums(core.UniformCrashFleet(n, p), true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "safe Raft sizings, N=%d p_u=%.4g\n", n, p)
		fmt.Fprintln(w, "|Qper|\t|Qvc|\tSafe&Live\tnines")
		for _, s := range sizings {
			fmt.Fprintf(w, "%d\t%d\t%s\t%.2f\n", s.Model.QPer, s.Model.QVC,
				dist.FormatPercent(s.Res.SafeAndLive, 2), s.Res.Nines())
		}
	case "pbft":
		sweep, err := core.SweepPBFTQuorums(core.UniformByzFleet(n, p))
		if err != nil {
			return err
		}
		frontier := core.PBFTFrontier(sweep)
		fmt.Fprintf(w, "PBFT safety/liveness Pareto frontier, N=%d p_u=%.4g\n", n, p)
		fmt.Fprintln(w, "|Q|\t|Qvc_t|\tSafe\tLive")
		for _, s := range frontier {
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\n", s.Model.QEq, s.Model.QVCT,
				dist.FormatPercent(s.Res.Safe, 2), dist.FormatPercent(s.Res.Live, 2))
		}
	default:
		return fmt.Errorf("unknown protocol %q", protocol)
	}
	return w.Flush()
}
