package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/montecarlo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRaftN5AcceptanceCampaign is the PR's acceptance criterion: the
// pinned-seed N=5 Raft campaign's Wilson 99% intervals must cover the
// exact engine's prediction for every scheduled configuration — baseline
// crashes, correlated zone shocks, an election storm, and a rolling
// upgrade — and no individual trial may contradict the theorem at its
// realized failure configuration.
func TestRaftN5AcceptanceCampaign(t *testing.T) {
	spec, ok := Lookup("raft-n5")
	if !ok {
		t.Fatal("raft-n5 schedule missing from the catalog")
	}
	rep, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Cells) != len(spec.Cells) {
		t.Fatalf("got %d cell reports, want %d", len(rep.Cells), len(spec.Cells))
	}
	for _, c := range rep.Cells {
		if c.ConfigMismatches != 0 {
			t.Errorf("cell %q: %d trials contradicted the theorem at their realized configuration", c.Name, c.ConfigMismatches)
		}
		if !c.Covered {
			t.Errorf("cell %q: Wilson 99%% interval [%.6f, %.6f] does not cover the exact prediction %.6f",
				c.Name, c.WilsonLo, c.WilsonHi, c.PredictedLive)
		}
		if c.WilsonLo > c.MeasuredLive || c.MeasuredLive > c.WilsonHi {
			t.Errorf("cell %q: measured %.6f outside its own interval [%.6f, %.6f]",
				c.Name, c.MeasuredLive, c.WilsonLo, c.WilsonHi)
		}
		if !c.Covered == (c.Divergence == 0) {
			// Divergence must be consistent with the measured/predicted pair.
			if got := c.MeasuredLive - c.PredictedLive; got != c.Divergence {
				t.Errorf("cell %q: divergence %v != measured-predicted %v", c.Name, c.Divergence, got)
			}
		}
	}
	if rep.Verdict != "pass" {
		t.Fatalf("verdict %q, want pass\n%s", rep.Verdict, rep.Format())
	}
	t.Logf("\n%s", rep.Format())
}

// TestCampaignDeterminism pins the contract the report cache and golden
// file rely on: the same spec and seed produce byte-identical JSON, and
// concurrent campaigns sharing one evaluator pool (the serving-layer
// deployment shape) do not disturb each other. Run under -race this also
// exercises the pool and trial workers for data races.
func TestCampaignDeterminism(t *testing.T) {
	spec, ok := Lookup("smoke")
	if !ok {
		t.Fatal("smoke schedule missing from the catalog")
	}
	pool := core.NewEvaluatorPool()
	const runs = 4
	reports := make([][]byte, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &Runner{Pool: pool, Workers: 1 + i%3}
			rep, err := r.Run(spec)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Errorf("run %d: marshal: %v", i, err)
				return
			}
			reports[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("run %d diverged from run 0 despite identical spec and seed:\n%s\nvs\n%s",
				i, reports[0], reports[i])
		}
	}
}

// TestCampaignReportGolden pins the smoke schedule's full report JSON —
// field order, Wilson bounds, divergences, verdict — against testdata.
// Regenerate with: go test ./internal/campaign -run Golden -update
func TestCampaignReportGolden(t *testing.T) {
	spec, _ := Lookup("smoke")
	rep, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "smoke_report.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report JSON drifted from golden %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestCatalogSchedulesValid ensures every shipped schedule passes its own
// validator — the CLI and CI smoke job trust the catalog blindly.
func TestCatalogSchedulesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Schedules() {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog schedule %q invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("catalog has duplicate schedule name %q", s.Name)
		}
		seen[s.Name] = true
		if _, ok := Lookup(s.Name); !ok {
			t.Errorf("Lookup(%q) misses a catalog schedule", s.Name)
		}
	}
	if _, ok := Lookup("no-such-schedule"); ok {
		t.Error("Lookup invented a schedule")
	}
}

// TestScheduleValidateRejects sweeps the validator's rejection surface.
func TestScheduleValidateRejects(t *testing.T) {
	good := func() ScheduleSpec {
		return ScheduleSpec{
			Name: "s",
			Cells: []CellSpec{
				{Name: "c", Protocol: "raft", N: 3, PCrash: 0.01, Trials: 2, Ops: 1},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*ScheduleSpec)
	}{
		{"empty name", func(s *ScheduleSpec) { s.Name = "" }},
		{"no cells", func(s *ScheduleSpec) { s.Cells = nil }},
		{"unnamed cell", func(s *ScheduleSpec) { s.Cells[0].Name = "" }},
		{"duplicate cell", func(s *ScheduleSpec) { s.Cells = append(s.Cells, s.Cells[0]) }},
		{"bad protocol", func(s *ScheduleSpec) { s.Cells[0].Protocol = "paxos" }},
		{"n too small", func(s *ScheduleSpec) { s.Cells[0].N = 0 }},
		{"n over sim bound", func(s *ScheduleSpec) { s.Cells[0].N = maxSimN + 1 }},
		{"bad profile", func(s *ScheduleSpec) { s.Cells[0].PCrash = 1.5 }},
		{"byzantine raft", func(s *ScheduleSpec) { s.Cells[0].PByz = 0.1 }},
		{"zero trials", func(s *ScheduleSpec) { s.Cells[0].Trials = 0 }},
		{"too many trials", func(s *ScheduleSpec) { s.Cells[0].Trials = maxTrials + 1 }},
		{"zero ops", func(s *ScheduleSpec) { s.Cells[0].Ops = 0 }},
		{"too many ops", func(s *ScheduleSpec) { s.Cells[0].Ops = maxOps + 1 }},
		{"bad domain", func(s *ScheduleSpec) {
			s.Cells[0].Domains = []faultcurve.Domain{{Name: "z", ShockProb: 2}}
		}},
		{"duplicate domain name", func(s *ScheduleSpec) {
			s.Cells[0].Domains = []faultcurve.Domain{
				{Name: "z", ShockProb: 0.1, CrashMultiplier: 2, ByzMultiplier: 1},
				{Name: "z", ShockProb: 0.2, CrashMultiplier: 2, ByzMultiplier: 1},
			}
		}},
		{"negative flaps", func(s *ScheduleSpec) { s.Cells[0].PartitionFlaps = -1 }},
		{"too many flaps", func(s *ScheduleSpec) { s.Cells[0].PartitionFlaps = maxFlaps + 1 }},
		{"cohorts over n", func(s *ScheduleSpec) { s.Cells[0].RollingCohorts = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
		})
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline spec must validate: %v", err)
	}
}

// TestRunnerRejectsBadSetup covers the runner's own preconditions.
func TestRunnerRejectsBadSetup(t *testing.T) {
	if _, err := (&Runner{}).Run(ScheduleSpec{}); err == nil {
		t.Error("Run accepted an invalid spec")
	}
	spec, _ := Lookup("smoke")
	if _, err := (&Runner{}).Run(spec); err == nil {
		t.Error("Run accepted a runner without a pool")
	}
}

// TestRunConfig pins the imposed-configuration entry point: given the
// configuration a sampled trial drew it reaches that trial's verdicts
// (the crash times differ — they come from the head of the seed's stream,
// not from after the configuration draws — but a Raft stall is
// structural), through the same overlays, and it refuses what the
// simulators cannot express.
func TestRunConfig(t *testing.T) {
	cell := CellSpec{Protocol: "raft", N: 5, PCrash: 0.4, Ops: 2, PartitionFlaps: 2}
	draws := cellDraws(t, cell)
	for seed := int64(1); seed <= 6; seed++ {
		_, crashed := drawConfig(draws, cell.N, montecarlo.NewStream(seed))
		want, err := runTrial(cell, cell.model(), draws, seed)
		if err != nil {
			t.Fatal(err)
		}
		safe, live, err := RunConfig(cell, nil, crashed, seed)
		if err != nil {
			t.Fatal(err)
		}
		if safe != want.safe || live != want.live || live != (len(crashed) <= 2) {
			t.Errorf("seed %d, crashed %v: RunConfig safe=%v live=%v, sampled trial safe=%v live=%v", seed, crashed, safe, live, want.safe, want.live)
		}
	}
	for name, run := range map[string]func() (bool, bool, error){
		"protocol": func() (bool, bool, error) { return RunConfig(CellSpec{Protocol: "paxos", N: 3, Ops: 1}, nil, nil, 1) },
		"byzantine raft": func() (bool, bool, error) {
			return RunConfig(CellSpec{Protocol: "raft", N: 3, Ops: 1}, []int{0}, nil, 1)
		},
		"size": func() (bool, bool, error) {
			return RunConfig(CellSpec{Protocol: "pbft", N: maxSimN + 1, Ops: 1}, nil, nil, 1)
		},
		"ops": func() (bool, bool, error) { return RunConfig(CellSpec{Protocol: "pbft", N: 4}, nil, nil, 1) },
		"node id": func() (bool, bool, error) {
			return RunConfig(CellSpec{Protocol: "pbft", N: 4, Ops: 1}, []int{4}, nil, 1)
		},
	} {
		if _, _, err := run(); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
}

// cellDraws returns the sampler workspace the runner's trial workers use
// for cell: its fleet's profiles and round-robin membership, untilted.
func cellDraws(t *testing.T, cell CellSpec) *montecarlo.Draws {
	t.Helper()
	fleet := cell.fleet()
	member, err := core.ResolveDomains(fleet, core.DomainSet(cell.Domains))
	if err != nil {
		t.Fatal(err)
	}
	var draws montecarlo.Draws
	if err := draws.Reset(fleet.Profiles(), member, cell.Domains, montecarlo.TriTilt{}); err != nil {
		t.Fatal(err)
	}
	return &draws
}

// refSampleConfig is the campaign's own configuration sampler as it stood
// before trials drew through the kernel (montecarlo.Draws), moved here
// verbatim. It drew each node's Byzantine outcome before its crash
// outcome, the kernel draws crash first, so the two agree draw for draw
// exactly where a node's base and elevated profiles carry at most one
// kind of fault.
func refSampleConfig(cell CellSpec, rng *rand.Rand) (byzNodes, crashedNodes []int) {
	fired := make([]bool, len(cell.Domains))
	for d, dom := range cell.Domains {
		fired[d] = rng.Float64() < dom.ShockProb
	}
	base := faultcurve.Profile{PCrash: cell.PCrash, PByz: cell.PByz}
	for i := 0; i < cell.N; i++ {
		p := base
		if len(cell.Domains) > 0 {
			if d := i % len(cell.Domains); fired[d] {
				p = cell.Domains[d].Elevate(base)
			}
		}
		u := rng.Float64()
		switch {
		case u < p.PByz:
			byzNodes = append(byzNodes, i)
		case u < p.PByz+p.PCrash:
			crashedNodes = append(crashedNodes, i)
		}
	}
	return byzNodes, crashedNodes
}

// TestDrawConfigMatchesOracle pins the trial's kernel-backed draw to the
// historical sampler with == on the node lists, and the crash-time draws
// that follow on the same generator, over the inputs the two could part
// on: shocks of 0, 1 and -0, an empty domain, zero-mass and certain-fault
// nodes, N = 1, Raft and PBFT. Every cell carries one kind of fault (see
// refSampleConfig).
func TestDrawConfigMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zone := func(name string, shock float64) faultcurve.Domain {
		return faultcurve.Domain{Name: name, ShockProb: shock, CrashMultiplier: 8, ByzMultiplier: 8}
	}
	cells := []CellSpec{
		{Name: "raft zones", Protocol: "raft", N: 7, PCrash: 0.06,
			Domains: []faultcurve.Domain{zone("z1", 0.3), zone("z2", 0.1), zone("z3", 0.5)}},
		{Name: "raft shocks 0 1 -0", Protocol: "raft", N: 6, PCrash: 0.05,
			Domains: []faultcurve.Domain{zone("z1", 0), zone("z2", 1), zone("z3", negZero)}},
		{Name: "raft empty domain", Protocol: "raft", N: 2, PCrash: 0.2,
			Domains: []faultcurve.Domain{zone("z1", 0.5), zone("z2", 0.5), zone("empty", 0.5)}},
		{Name: "raft zero mass", Protocol: "raft", N: 5,
			Domains: []faultcurve.Domain{zone("z1", 0.5)}},
		{Name: "raft certain crash", Protocol: "raft", N: 3, PCrash: 1},
		{Name: "raft shock to certain crash", Protocol: "raft", N: 4, PCrash: 0.125,
			Domains: []faultcurve.Domain{zone("z1", 0.5)}},
		{Name: "raft n1", Protocol: "raft", N: 1, PCrash: 0.5},
		{Name: "pbft byzantine zones", Protocol: "pbft", N: 7, PByz: 0.05,
			Domains: []faultcurve.Domain{zone("z1", 0.4), zone("z2", 0)}},
		{Name: "pbft certain byzantine", Protocol: "pbft", N: 4, PByz: 1},
		{Name: "pbft n1", Protocol: "pbft", N: 1, PByz: 0.5,
			Domains: []faultcurve.Domain{zone("z1", 1)}},
		{Name: "pbft crash only", Protocol: "pbft", N: 4, PCrash: 0.3},
	}
	for _, cell := range cells {
		draws := cellDraws(t, cell)
		for seed := int64(1); seed <= 200; seed++ {
			s, ref := montecarlo.NewStream(seed), rand.New(rand.NewSource(seed))
			byz, crashed := drawConfig(draws, cell.N, s)
			wantByz, wantCrashed := refSampleConfig(cell, ref)
			if !slices.Equal(byz, wantByz) || !slices.Equal(crashed, wantCrashed) {
				t.Fatalf("%s seed %d: kernel byz %v crashed %v, oracle byz %v crashed %v",
					cell.Name, seed, byz, crashed, wantByz, wantCrashed)
			}
			if rand.New(s).Int63() != ref.Int63() {
				t.Fatalf("%s seed %d: the generators left the draw at different points", cell.Name, seed)
			}
		}
	}
}
