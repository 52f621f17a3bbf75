package campaign

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/inputcheck"
	"repro/internal/sim"
)

// CellSpec is one scheduled configuration: a fleet model (the exact
// engine's input) plus the fault schedule imposed on the simulated
// cluster and how many independent trials to run. Partition flaps and
// rolling cohorts are transient stressors: they perturb elections and
// view changes mid-run but leave the terminal failure configuration —
// the thing the fail-stop analytic model predicts — unchanged, which is
// exactly what makes them useful divergence probes.
type CellSpec struct {
	Name     string `json:"name"`
	Protocol string `json:"protocol"` // "raft" or "pbft"
	N        int    `json:"n"`
	// PCrash/PByz are the uniform per-node window fault probabilities of
	// the fleet model. Raft cells must be crash-only (a Byzantine node is
	// outside Raft's fault model and the simulator has no Byzantine Raft
	// behavior).
	PCrash float64 `json:"p_crash"`
	PByz   float64 `json:"p_byz,omitempty"`
	Trials int     `json:"trials"`
	Ops    int     `json:"ops"`
	// Domains declares correlated failure domains (distinct names, as the
	// exact engine's resolver requires); fleet membership is round-robin
	// (node i joins domain i mod D), matching the serving layer's
	// uniform-fleet convention.
	Domains []faultcurve.Domain `json:"domains,omitempty"`
	// PartitionFlaps > 0 isolates node (flap mod N) for flapDur once per
	// flapPeriod — the election-storm schedule.
	PartitionFlaps int `json:"partition_flaps,omitempty"`
	// RollingCohorts > 0 restarts the fleet in that many staggered
	// cohorts (nodes sampled to crash this trial are skipped: a rolling
	// restart must not resurrect a fail-stop crash).
	RollingCohorts int `json:"rolling_cohorts,omitempty"`
}

// ScheduleSpec is a named, seed-pinned list of cells.
type ScheduleSpec struct {
	Name  string     `json:"name"`
	Seed  int64      `json:"seed"`
	Cells []CellSpec `json:"cells"`
}

// Validate rejects cells the runner (or the exact engine) cannot honor.
func (s ScheduleSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: schedule needs a name")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("campaign: schedule %q has no cells", s.Name)
	}
	seen := map[string]bool{}
	for i, c := range s.Cells {
		if c.Name == "" {
			return fmt.Errorf("campaign: %s cell %d needs a name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("campaign: %s has duplicate cell %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Protocol != "raft" && c.Protocol != "pbft" {
			return fmt.Errorf("campaign: cell %q: unknown protocol %q", c.Name, c.Protocol)
		}
		if err := inputcheck.CheckClusterSize(c.N); err != nil {
			return fmt.Errorf("campaign: cell %q: %w", c.Name, err)
		}
		if c.N > maxSimN {
			return fmt.Errorf("campaign: cell %q: simulated clusters are bounded at N=%d, got %d", c.Name, maxSimN, c.N)
		}
		if err := inputcheck.CheckProfile(c.PCrash, c.PByz); err != nil {
			return fmt.Errorf("campaign: cell %q: %w", c.Name, err)
		}
		if c.Protocol == "raft" && c.PByz > 0 {
			return fmt.Errorf("campaign: cell %q: raft cells must be crash-only (p_byz=%v)", c.Name, c.PByz)
		}
		if c.Trials <= 0 || c.Trials > maxTrials {
			return fmt.Errorf("campaign: cell %q: trials must be in [1, %d], got %d", c.Name, maxTrials, c.Trials)
		}
		if c.Ops <= 0 || c.Ops > maxOps {
			return fmt.Errorf("campaign: cell %q: ops must be in [1, %d], got %d", c.Name, maxOps, c.Ops)
		}
		if err := inputcheck.CheckDomainCount(len(c.Domains)); err != nil {
			return fmt.Errorf("campaign: cell %q: %w", c.Name, err)
		}
		if err := core.DomainSet(c.Domains).Validate(c.fleet()); err != nil {
			return fmt.Errorf("campaign: cell %q: %w", c.Name, err)
		}
		if c.PartitionFlaps < 0 || c.PartitionFlaps > maxFlaps {
			return fmt.Errorf("campaign: cell %q: partition_flaps must be in [0, %d]", c.Name, maxFlaps)
		}
		if c.RollingCohorts < 0 || c.RollingCohorts > c.N {
			return fmt.Errorf("campaign: cell %q: rolling_cohorts must be in [0, n]", c.Name)
		}
	}
	return nil
}

// Runner-side bounds: the simulator is event-driven and a campaign is a
// batch of full protocol executions, so cells are kept far below the
// analytic engine's limits.
const (
	maxSimN   = 64
	maxTrials = 4096
	maxOps    = 64
	maxFlaps  = 64
)

// fleet builds the cell's engine-side fleet model: uniform profiles with
// round-robin domain membership.
func (c CellSpec) fleet() core.Fleet {
	profile := faultcurve.Profile{PCrash: c.PCrash, PByz: c.PByz}
	fleet := make(core.Fleet, c.N)
	for i := range fleet {
		fleet[i] = core.Node{Profile: profile}
		if len(c.Domains) > 0 {
			fleet[i].Domain = c.Domains[i%len(c.Domains)].Name
		}
	}
	return fleet
}

// model resolves the cell's protocol model (textbook quorums).
func (c CellSpec) model() core.CountModel {
	if c.Protocol == "pbft" {
		return core.NewPBFTForN(c.N)
	}
	return core.NewRaft(c.N)
}

// Schedule horizons in virtual time. Trials exit early once live and past
// the fault window, so the horizon is a ceiling, not a cost.
const (
	raftHorizon = 60 * sim.Second
	pbftHorizon = 120 * sim.Second
)

// Schedules returns the named campaign catalog, in a fixed order:
//
//   - smoke: a small three-cell schedule sized for CI.
//   - raft-n5: the pinned-seed N=5 Raft fleet of the acceptance
//     criterion — baseline crashes, correlated zone shocks, an
//     election-storm partition schedule, and a rolling upgrade.
//   - pbft-n4: PBFT under Byzantine and mixed crash/Byzantine mass.
//   - election-storm: repeated leader isolation at two sizes.
func Schedules() []ScheduleSpec {
	return []ScheduleSpec{
		{
			Name: "smoke",
			Seed: 1,
			Cells: []CellSpec{
				{Name: "raft-n3-baseline", Protocol: "raft", N: 3, PCrash: 0.08, Trials: 24, Ops: 3},
				{Name: "raft-n5-zones", Protocol: "raft", N: 5, PCrash: 0.03, Trials: 10, Ops: 3,
					Domains: threeZones(0.02, 10)},
				{Name: "pbft-n4-byz", Protocol: "pbft", N: 4, PByz: 0.05, Trials: 8, Ops: 2},
			},
		},
		{
			Name: "raft-n5",
			Seed: 42,
			Cells: []CellSpec{
				{Name: "baseline", Protocol: "raft", N: 5, PCrash: 0.04, Trials: 48, Ops: 4},
				{Name: "zone-shocks", Protocol: "raft", N: 5, PCrash: 0.02, Trials: 48, Ops: 4,
					Domains: threeZones(0.03, 12)},
				{Name: "election-storm", Protocol: "raft", N: 5, PCrash: 0.03, Trials: 48, Ops: 4,
					PartitionFlaps: 6},
				{Name: "rolling-upgrade", Protocol: "raft", N: 5, PCrash: 0.03, Trials: 48, Ops: 4,
					RollingCohorts: 3},
			},
		},
		{
			Name: "pbft-n4",
			Seed: 7,
			Cells: []CellSpec{
				{Name: "byz", Protocol: "pbft", N: 4, PByz: 0.04, Trials: 32, Ops: 3},
				{Name: "mixed", Protocol: "pbft", N: 4, PCrash: 0.03, PByz: 0.03, Trials: 32, Ops: 3},
				{Name: "byz-zones", Protocol: "pbft", N: 4, PByz: 0.02, Trials: 32, Ops: 3,
					Domains: []faultcurve.Domain{{Name: "z1", ShockProb: 0.05, CrashMultiplier: 1, ByzMultiplier: 8}}},
			},
		},
		{
			Name: "election-storm",
			Seed: 11,
			Cells: []CellSpec{
				{Name: "raft-n5-flaps", Protocol: "raft", N: 5, PCrash: 0.02, Trials: 32, Ops: 4,
					PartitionFlaps: 8},
				{Name: "raft-n7-flaps", Protocol: "raft", N: 7, PCrash: 0.02, Trials: 24, Ops: 4,
					PartitionFlaps: 8},
			},
		},
	}
}

// Lookup finds a named schedule from the catalog.
func Lookup(name string) (ScheduleSpec, bool) {
	for _, s := range Schedules() {
		if s.Name == name {
			return s, true
		}
	}
	return ScheduleSpec{}, false
}

// threeZones is the standard balanced three-zone layout with a uniform
// shock probability and crash multiplier.
func threeZones(shock, mult float64) []faultcurve.Domain {
	return []faultcurve.Domain{
		{Name: "z1", ShockProb: shock, CrashMultiplier: mult, ByzMultiplier: 1},
		{Name: "z2", ShockProb: shock, CrashMultiplier: mult, ByzMultiplier: 1},
		{Name: "z3", ShockProb: shock, CrashMultiplier: mult, ByzMultiplier: 1},
	}
}
