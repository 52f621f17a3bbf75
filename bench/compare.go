package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json --compare needs: the bound
// by which each end-to-end metric may worsen before it is a regression.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares one metric across two runs of the benchmark. change is the
// relative move in the worse direction (positive = worse). A move inside
// the bound is "unchanged" — unless the segments of either run were
// themselves spread wider than the bound, in which case the benchmark did
// not resolve the metric and says so rather than vouching for it.
func judge(old, new value, higherIsBetter bool, bound float64) (verdict string, change float64) {
	if old.Value == 0 {
		return verdictUnresolved, 0
	}
	change = (new.Value - old.Value) / old.Value
	if higherIsBetter {
		change = -change
	}
	switch {
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	case old.Spread > bound || new.Spread > bound:
		return verdictUnresolved, change
	}
	return verdictUnchanged, change
}

func readOutFile(path string) (map[string]run, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := map[string]run{}
	for _, r := range f.Runs {
		if r.Trace == 0 {
			runs[r.Workload] = r
		}
	}
	return runs, nil
}

// compareMain prints one row per workload x end-to-end metric and returns
// the exit code: 1 when any row is worse (or a run was incorrect), 2 when
// the inputs cannot be read.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench --compare old.json new.json")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var spec benchmarkJSON
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	old, err := readOutFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readOutFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, name := range workloadNames {
		o, okO := old[name]
		n, okN := cur[name]
		if !okO || !okN {
			continue
		}
		if !o.Correct || !n.Correct {
			fmt.Printf("%-13s a run answered incorrectly (old failed %d, new failed %d)\n", name, o.Failed, n.Failed)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			verdict, change := judge(o.Metrics[m.Name], n.Metrics[m.Name], m.Better == "higher", m.Bound)
			// change is signed toward "worse"; print it in the metric's own direction.
			shown := change
			if m.Better == "higher" {
				shown = -change
			}
			fmt.Printf("%-13s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", name, m.Name,
				o.Metrics[m.Name].Value, n.Metrics[m.Name].Value, 100*shown, 100*m.Bound, verdict)
			if verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
