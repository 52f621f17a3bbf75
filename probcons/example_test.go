package probcons_test

// These Example functions are the runnable mirrors of the walkthroughs in
// examples/quickstart and examples/domains: `go test ./probcons` executes
// them and diffs their output, so the documented numbers can never rot.
// The main-program versions exist for `go run`; keep the two in sync.

import (
	"fmt"

	"repro/probcons"
)

// Example_quickstart is examples/quickstart as an executed document: the
// paper's headline numbers for small Raft clusters.
func Example_quickstart() {
	// The paper's headline (§1, §3.2): three nodes, each 1% likely to be
	// down over the mission window.
	res := probcons.RaftReliability(3, 0.01)
	fmt.Println("3-node Raft, p_u = 1%:")
	fmt.Printf("  safe:        %s\n", probcons.Percent(res.Safe))
	fmt.Printf("  live:        %s\n", probcons.Percent(res.Live))
	fmt.Printf("  safe & live: %s  (%.2f nines — not 100%%!)\n",
		probcons.Percent(res.SafeAndLive), probcons.NinesOf(res.SafeAndLive))

	// Sweep cluster sizes at several failure probabilities (Table 2).
	fmt.Println("\nnines of safe-and-live reliability by cluster size:")
	fmt.Printf("  %4s  %8s  %8s  %8s  %8s\n", "N", "p=1%", "p=2%", "p=4%", "p=8%")
	for _, n := range []int{3, 5, 7, 9, 11} {
		fmt.Printf("  %4d", n)
		for _, p := range []float64{0.01, 0.02, 0.04, 0.08} {
			fmt.Printf("  %8.2f", probcons.NinesOf(probcons.RaftReliability(n, p).SafeAndLive))
		}
		fmt.Println()
	}

	// A heterogeneous fleet: the analysis takes per-node probabilities.
	fleet := probcons.CrashFleet(5, 0.08)
	fleet[0].Profile = probcons.Profile{PCrash: 0.01}
	fleet[1].Profile = probcons.Profile{PCrash: 0.01}
	het, err := probcons.Analyze(fleet, probcons.NewRaft(5))
	if err != nil {
		panic(err)
	}
	uniform := probcons.RaftReliability(5, 0.08)
	fmt.Printf("\n5-node fleet, two nodes upgraded 8%% -> 1%%:\n")
	fmt.Printf("  uniform:  %s\n", probcons.Percent(uniform.SafeAndLive))
	fmt.Printf("  upgraded: %s\n", probcons.Percent(het.SafeAndLive))

	// Output:
	// 3-node Raft, p_u = 1%:
	//   safe:        100%
	//   live:        99.97%
	//   safe & live: 99.97%  (3.53 nines — not 100%!)
	//
	// nines of safe-and-live reliability by cluster size:
	//      N      p=1%      p=2%      p=4%      p=8%
	//      3      3.53      2.93      2.33      1.74
	//      5      5.01      4.11      3.22      2.34
	//      7      6.47      5.27      4.09      2.93
	//      9      7.91      6.42      4.95      3.50
	//     11      9.35      7.57      5.80      4.07
	//
	// 5-node fleet, two nodes upgraded 8% -> 1%:
	//   uniform:  99.55%
	//   upgraded: 99.91%
}

// Example_domains is examples/domains as an executed document: the
// correlated-failure headline — a write-optimized flexible quorum's five
// nines collapse once zone-level shocks are modelled, while a
// zone-resilient majority sizing rides the same shocks out.
func Example_domains() {
	// Nine nodes, three per availability zone, each 0.4% likely to be
	// crash-faulty over the window. Each zone carries a 1e-4 common-cause
	// shock that multiplies member crash probability by 300 (i.e. the
	// zone is effectively down while the shock is active).
	domains := probcons.DomainSet{
		{Name: "zone-a", ShockProb: 1e-4, CrashMultiplier: 300, ByzMultiplier: 1},
		{Name: "zone-b", ShockProb: 1e-4, CrashMultiplier: 300, ByzMultiplier: 1},
		{Name: "zone-c", ShockProb: 1e-4, CrashMultiplier: 300, ByzMultiplier: 1},
	}
	fleet := probcons.CrashFleet(9, 0.004)
	for i := range fleet {
		fleet[i].Domain = domains[i%len(domains)].Name
	}

	// Write-optimized flexible quorums: commits touch only 3 nodes, but
	// elections need 7 — losing any whole zone blocks leader election.
	writeOpt := probcons.Raft{NNodes: 9, QPer: 3, QVC: 7}
	indep, _ := probcons.Analyze(fleet, writeOpt)
	corr, _ := probcons.AnalyzeDomains(fleet, writeOpt, domains)
	fmt.Println("write-optimized (Qper=3, Qvc=7):")
	fmt.Printf("  independent: %s (%.2f nines)\n",
		probcons.Percent(indep.SafeAndLive), probcons.NinesOf(indep.SafeAndLive))
	fmt.Printf("  zone shocks: %s (%.2f nines)\n",
		probcons.Percent(corr.SafeAndLive), probcons.NinesOf(corr.SafeAndLive))

	// Majority quorums survive any single-zone loss, so the same shocks
	// only cost the (much rarer) two-zone events.
	majority := probcons.NewRaft(9)
	mIndep, _ := probcons.Analyze(fleet, majority)
	mCorr, _ := probcons.AnalyzeDomains(fleet, majority, domains)
	fmt.Println("majority (Qper=5, Qvc=5):")
	fmt.Printf("  independent: %s (%.2f nines)\n",
		probcons.Percent(mIndep.SafeAndLive), probcons.NinesOf(mIndep.SafeAndLive))
	fmt.Printf("  zone shocks: %s (%.2f nines)\n",
		probcons.Percent(mCorr.SafeAndLive), probcons.NinesOf(mCorr.SafeAndLive))

	// Output:
	// write-optimized (Qper=3, Qvc=7):
	//   independent: 99.9995% (5.28 nines)
	//   zone shocks: 99.97% (3.52 nines)
	// majority (Qper=5, Qvc=5):
	//   independent: 99.99999999% (9.90 nines)
	//   zone shocks: 99.99999% (6.99 nines)
}

// ExampleAnalyzeDomains shows the minimal correlated-failure call: declare
// the domains, tag the nodes, analyze.
func ExampleAnalyzeDomains() {
	domains := probcons.DomainSet{
		{Name: "rollout", ShockProb: 0.001, CrashMultiplier: 100, ByzMultiplier: 1},
	}
	fleet := probcons.CrashFleet(3, 0.01)
	for i := range fleet {
		fleet[i].Domain = "rollout" // all three replicas take the same binary
	}
	res, err := probcons.AnalyzeDomains(fleet, probcons.NewRaft(3), domains)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s safe-and-live\n", probcons.Percent(res.SafeAndLive))
	// Output:
	// 99.87% safe-and-live
}
