package campaign

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/pbft"
	"repro/internal/raft"
	"repro/internal/sim"
)

// Campaign timing, in virtual time. Crashes land in the crash window;
// transient overlays (partition flaps, rolling cohorts) run after it; the
// liveness probe op is only submitted once every scheduled disturbance is
// over, so the probe exercises the terminal failure configuration — the
// one the exact engine scores.
const (
	crashWindow  = 5 * sim.Second
	overlayStart = 6 * sim.Second
	flapPeriod   = 2 * sim.Second
	flapDur      = 800 * sim.Millisecond
	rollOutage   = 1 * sim.Second
	rollStagger  = 2 * sim.Second
	overlaySlack = 1 * sim.Second
	runChunk     = 2 * sim.Second
)

// Runner executes campaign schedules. Zero value is not usable: construct
// with NewRunner, or share a pool across runners (and with the serving
// layer) by filling the fields directly.
type Runner struct {
	// Pool supplies exact-engine evaluators for the per-cell predictions.
	Pool *core.EvaluatorPool
	// Workers bounds trial parallelism per cell (<= 0 means GOMAXPROCS).
	Workers int
}

// NewRunner builds a runner with its own evaluator pool.
func NewRunner() *Runner {
	return &Runner{Pool: core.NewEvaluatorPool()}
}

// trialOutcome is what one simulated execution contributes to its cell.
type trialOutcome struct {
	crashed, byz int
	safe, live   bool
	// mismatch: the trial's observed outcome contradicts the theorem's
	// prediction for the realized configuration (the sharp, per-trial
	// divergence statistic — see doc.go).
	mismatch bool
	churn    uint64 // MaxTerm (raft) or MaxView (pbft)
	steps    uint64 // scheduler events consumed
}

// Run executes every cell of the schedule and assembles the divergence
// report. Trials run in parallel but land in index-addressed slots with
// per-trial seeds derived from (schedule seed, cell index, trial index),
// so the report is byte-for-byte reproducible for a given spec.
func (r *Runner) Run(spec ScheduleSpec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if r.Pool == nil {
		return nil, fmt.Errorf("campaign: runner needs an evaluator pool")
	}
	rep := &Report{Schedule: spec.Name, Seed: spec.Seed, Z: WilsonZ}
	for ci, cell := range spec.Cells {
		cr, err := r.runCell(spec.Seed, ci, cell)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %q: %w", cell.Name, err)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	rep.finalize()
	recordReport(rep)
	return rep, nil
}

// runCell computes the cell's exact-engine prediction, runs its trials,
// and folds them into a CellReport.
func (r *Runner) runCell(seed int64, cellIdx int, cell CellSpec) (CellReport, error) {
	model := cell.model()
	fleet := cell.fleet()
	// ScheduleSpec.Validate, which Run calls first, checked the profiles and
	// domains: the cell's layout is resolved once, for the prediction and
	// the sampler's membership view alike.
	var q core.Query
	if err := q.Resolve(fleet, model, core.DomainSet(cell.Domains)); err != nil {
		return CellReport{}, err
	}
	predicted := r.Pool.AnalyzeQuery(&q)
	member := q.Members()
	profiles := fleet.Profiles()

	outcomes := make([]trialOutcome, cell.Trials)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cell.Trials {
		workers = cell.Trials
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One workspace per worker: the tables are the cell's, the
			// per-draw scratch is the worker's.
			var draws montecarlo.Draws
			if err := draws.Reset(profiles, member, cell.Domains, montecarlo.TriTilt{}); err != nil {
				errs[w] = err
				return
			}
			for t := w; t < cell.Trials; t += workers {
				out, err := runTrial(cell, model, &draws, trialSeed(seed, cellIdx, t))
				if err != nil {
					errs[w] = err
					return
				}
				outcomes[t] = out
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return CellReport{}, err
		}
	}
	return newCellReport(cell, model, predicted, outcomes), nil
}

// trialSeed derives the deterministic RNG seed for one trial.
func trialSeed(seed int64, cellIdx, trial int) int64 {
	return seed + int64(cellIdx)*1_000_003 + int64(trial)*7_919
}

// drawConfig draws the trial's failure configuration from s through the
// sampler kernel — the measure the exact engine integrates: one Bernoulli
// per domain for the shock, then one trinomial per node from the
// (possibly shock-elevated) profile — and lists the n nodes it made
// Byzantine and crashed, in id order.
func drawConfig(draws *montecarlo.Draws, n int, s *montecarlo.Stream) (byzNodes, crashedNodes []int) {
	draws.Next(s)
	for i := 0; i < n; i++ {
		switch crashed, byz := draws.Node(i); {
		case byz:
			byzNodes = append(byzNodes, i)
		case crashed:
			crashedNodes = append(crashedNodes, i)
		}
	}
	return byzNodes, crashedNodes
}

// overlayEnd returns the virtual time by which every scheduled
// disturbance (crashes, flaps, rolling cohorts) has finished.
func overlayEnd(cell CellSpec) sim.Time {
	end := crashWindow
	if cell.PartitionFlaps > 0 {
		if t := overlayStart + sim.Time(cell.PartitionFlaps-1)*flapPeriod + flapDur; t > end {
			end = t
		}
	}
	if cell.RollingCohorts > 0 {
		if t := overlayStart + sim.Time(cell.RollingCohorts-1)*rollStagger + rollOutage; t > end {
			end = t
		}
	}
	return end + overlaySlack
}

// runTrial executes one simulated protocol run under a fault schedule
// drawn from draws (reset to the cell's fleet) and scores it against the
// theorem's prediction for the realized configuration. One stream — the
// one rand.NewSource(seed) produces — yields the configuration and then,
// through rand.New, the crash times.
func runTrial(cell CellSpec, model core.CountModel, draws *montecarlo.Draws, seed int64) (trialOutcome, error) {
	s := montecarlo.NewStream(seed)
	byzNodes, crashedNodes := drawConfig(draws, cell.N, s)
	var out trialOutcome
	out.crashed, out.byz = len(crashedNodes), len(byzNodes)
	var err error
	out.safe, out.live, out.churn, out.steps, err = runConfig(cell, byzNodes, crashedNodes, rand.New(s), seed)
	if err != nil {
		return trialOutcome{}, err
	}
	// Per-trial divergence: observed liveness must equal Live(c, b) (the
	// stall conditions at textbook quorums are all structural, so Silent
	// Byzantine behavior realizes the predicate both ways), and a
	// configuration the theorem calls safe must never show an agreement
	// violation. The reverse safety direction is not scored: omission-only
	// Byzantine behavior cannot realize an equivocation attack.
	predLive := model.Live(out.crashed, out.byz)
	out.mismatch = out.live != predLive || (!out.safe && model.Safe(out.crashed, out.byz))
	return out, nil
}

// RunConfig is one trial under a failure configuration the caller imposes
// instead of one drawConfig draws: byzNodes are Silent from the start,
// crashedNodes fail-stop at seed-derived times inside the crash window,
// the cell's overlays run, and the retry workload drives cell.Ops ops plus
// the terminal probe. It reports what the run showed — no agreement
// violation, and every op plus the probe committed at every alive correct
// node — and leaves the comparison with the theorem to the caller (the
// V1/V2 experiments and the theorem sweep judge a stall by whether it is
// structural). Only Protocol, N, Ops and the overlay fields of the cell
// are read.
func RunConfig(cell CellSpec, byzNodes, crashedNodes []int, seed int64) (safe, live bool, err error) {
	if cell.Protocol != "raft" && cell.Protocol != "pbft" {
		return false, false, fmt.Errorf("campaign: unknown protocol %q", cell.Protocol)
	}
	if cell.Protocol == "raft" && len(byzNodes) > 0 {
		return false, false, fmt.Errorf("campaign: raft runs are crash-only (%d byzantine nodes)", len(byzNodes))
	}
	if cell.N < 1 || cell.N > maxSimN || cell.Ops < 1 || cell.Ops > maxOps {
		return false, false, fmt.Errorf("campaign: need n in [1, %d] and ops in [1, %d], got n=%d ops=%d", maxSimN, maxOps, cell.N, cell.Ops)
	}
	for _, ids := range [][]int{byzNodes, crashedNodes} {
		for _, i := range ids {
			if i < 0 || i >= cell.N {
				return false, false, fmt.Errorf("campaign: node %d out of range [0, %d)", i, cell.N)
			}
		}
	}
	safe, live, _, _, err = runConfig(cell, byzNodes, crashedNodes, rand.New(rand.NewSource(seed)), seed)
	return safe, live, err
}

// runConfig executes one simulated protocol run with the given nodes
// Byzantine and crashed. Crash times land uniformly in the crash window,
// drawn from rng in crashedNodes order; Byzantine behavior is present from
// the start (it is a behavior, not an event).
func runConfig(cell CellSpec, byzNodes, crashedNodes []int, rng *rand.Rand, seed int64) (safe, live bool, churn, steps uint64, err error) {
	crashAt := make(map[int]sim.Time, len(crashedNodes))
	for _, i := range crashedNodes {
		crashAt[i] = sim.Time(rng.Int63n(int64(crashWindow)))
	}
	if cell.Protocol == "pbft" {
		return runPBFTTrial(cell, byzNodes, crashAt, seed)
	}
	return runRaftTrial(cell, crashAt, seed)
}

// runRaftTrial drives one Raft execution: crashes at their sampled times,
// overlays per the cell, and a retry workload that re-proposes the first
// not-yet-everywhere-committed op until all Ops ops plus the terminal
// probe are committed at every alive node.
func runRaftTrial(cell CellSpec, crashAt map[int]sim.Time, seed int64) (safe, live bool, churn, steps uint64, err error) {
	c, err := raft.NewCluster(raft.Config{N: cell.N}, seed+1, sim.UniformDelay{Min: 1 * sim.Millisecond, Max: 5 * sim.Millisecond}, 0)
	if err != nil {
		return false, false, 0, 0, err
	}
	c.Start()
	in := sim.NewInjector(c.Net, c.Crashables())
	scheduleFaults(in, cell, crashAt)

	gate := overlayEnd(cell)
	done := false
	var tick func()
	tick = func() {
		n := raftCommittedEverywhere(c)
		if n > cell.Ops {
			done = true
			return
		}
		if n == cell.Ops && c.Sched.Now() < gate {
			// All regular ops are in; hold the probe until the terminal
			// configuration is reached.
			c.Sched.After(200*sim.Millisecond, tick)
			return
		}
		c.ProposeAny(fmt.Sprintf("op-%d", n))
		c.Sched.After(200*sim.Millisecond, tick)
	}
	c.Sched.At(500*sim.Millisecond, tick)

	horizon := raftHorizon
	for c.Sched.Now() < horizon && !done {
		c.RunFor(runChunk)
	}
	safe = c.Rec.CheckAgreement() == nil
	return safe, done, c.MaxTerm(), c.Sched.Steps(), nil
}

// raftCommittedEverywhere counts how many of op-0, op-1, ... are committed
// at every alive node (0 if no node is alive — a fully crashed fleet
// serves nothing).
func raftCommittedEverywhere(c *raft.Cluster) int {
	alive := c.AliveCorrect()
	if len(alive) == 0 {
		return 0
	}
	sets := make([]map[string]bool, len(alive))
	for k, id := range alive {
		vals := c.Rec.Committed(id)
		sets[k] = make(map[string]bool, len(vals))
		for _, v := range vals {
			sets[k][v] = true
		}
	}
	for j := 0; ; j++ {
		op := fmt.Sprintf("op-%d", j)
		for _, s := range sets {
			if !s[op] {
				return j
			}
		}
	}
}

// runPBFTTrial drives one PBFT execution: Silent behavior on the sampled
// Byzantine nodes, crashes at their sampled times, and a client that
// keeps submitting until Ops requests plus the terminal probe are
// committed at every honest alive replica.
func runPBFTTrial(cell CellSpec, byzNodes []int, crashAt map[int]sim.Time, seed int64) (safe, live bool, churn, steps uint64, err error) {
	behaviors := make([]pbft.Behavior, cell.N)
	for _, i := range byzNodes {
		behaviors[i] = pbft.Silent
	}
	c, err := pbft.NewCluster(pbft.Config{N: cell.N}, behaviors, seed+1, sim.UniformDelay{Min: 1 * sim.Millisecond, Max: 5 * sim.Millisecond}, 0)
	if err != nil {
		return false, false, 0, 0, err
	}
	c.Start()
	in := sim.NewInjector(c.Net, c.Crashables())
	scheduleFaults(in, cell, crashAt)

	gate := overlayEnd(cell)
	done := false
	var tick func()
	tick = func() {
		n := c.CommittedEverywhere()
		if n > cell.Ops {
			done = true
			return
		}
		if n == cell.Ops && c.Sched.Now() < gate {
			c.Sched.After(600*sim.Millisecond, tick)
			return
		}
		c.Request()
		c.Sched.After(600*sim.Millisecond, tick)
	}
	c.Sched.At(500*sim.Millisecond, tick)

	horizon := pbftHorizon
	for c.Sched.Now() < horizon && !done {
		c.RunFor(runChunk)
	}
	safe = c.Rec.CheckAgreement() == nil
	return safe, done, uint64(c.MaxView()), c.Sched.Steps(), nil
}

// scheduleFaults arranges the trial's fail-stop crashes and the cell's
// transient overlays on the injector. Rolling cohorts skip nodes sampled
// to crash: a rolling restart must not resurrect a fail-stop fault.
func scheduleFaults(in *sim.Injector, cell CellSpec, crashAt map[int]sim.Time) {
	// Node-id order, not map order: scheduler insertion order must be
	// deterministic for a pinned seed.
	for node := 0; node < cell.N; node++ {
		if at, ok := crashAt[node]; ok {
			in.Schedule([]sim.Fault{{Node: node, At: at}})
		}
	}
	for k := 0; k < cell.PartitionFlaps; k++ {
		at := overlayStart + sim.Time(k)*flapPeriod
		in.SchedulePartition(k%cell.N, at, at+flapDur)
	}
	if cell.RollingCohorts > 0 {
		for ci := 0; ci < cell.RollingCohorts; ci++ {
			var cohort []int
			for i := ci; i < cell.N; i += cell.RollingCohorts {
				if _, crashes := crashAt[i]; !crashes {
					cohort = append(cohort, i)
				}
			}
			if len(cohort) > 0 {
				in.ScheduleRolling(cohort, overlayStart+sim.Time(ci)*rollStagger, rollOutage, 0)
			}
		}
	}
}
