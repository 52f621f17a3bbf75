// Command bench is the probconsd benchmark: seeded closed-loop workloads
// against the real daemon over a loopback socket (the gated end-to-end
// metrics), and a traced in-process replay of the same request streams
// through each layer's public functions (the ungated per-layer metrics).
// README.md in this directory explains every workload and metric.
//
// One run is one workload:
//
//	bash bench/run.sh --workload hot_small --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics and, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}. --trace 1
// prints the per-layer metrics instead. --workload all runs every workload
// both ways; --out keeps the numbers for --compare old.json new.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// segmentSeconds is the length of the slices the measured closed-loop phase
// is cut into. Each segment's readings are put at the box's nominal speed
// with the calibration bursts timed inside that segment (loadgen.go), and
// each end-to-end metric is the median of its per-segment readings: a few
// seconds of neighbour load move a few readings, not the result, and a
// minute of it moves readings and bursts alike.
const segmentSeconds = 1

// setupBursts is how many calibration bursts are timed before and again
// after each boot-and-warm cycle to put setup_s at nominal speed.
const setupBursts = 4

// setupRuns is how many times a --trace 0 run boots and warms a fresh
// daemon; setup_s is the median, the last daemon is the one measured.
const setupRuns = 9

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	traceOut string
	compare  bool
}

// run is one workload's result in one mode (--trace 0 or 1).
type run struct {
	Workload  string           `json:"workload"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outFile is what --out writes and --compare reads.
type outFile struct {
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	Runs    []run  `json:"runs"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: hot_small, cold_large, domain_churn, solver_mix, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same request streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of measured load per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.out, "out", "", "also write every run's metrics to this JSON file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/spans-<workload>.json)")
	flag.BoolVar(&cfg.compare, "compare", false, "compare two --out files given as arguments; exit 1 on any worse metric")
	flag.Parse()
	if cfg.compare {
		os.Exit(compareMain(flag.Args()))
	}
	ok, err := benchMain(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func benchMain(cfg config) (bool, error) {
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return false, fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	bin, buildTime, err := buildDaemon(root)
	if err != nil {
		return false, err
	}
	names, traces := []string{cfg.workload}, []int{cfg.trace}
	if cfg.workload == "all" {
		names, traces = workloadNames, []int{0, 1}
	}
	file := outFile{Seed: cfg.seed, Seconds: cfg.seconds}
	allOK := true
	for _, name := range names {
		for _, trace := range traces {
			w, err := newWorkload(name, cfg.seed)
			if err != nil {
				return false, err
			}
			b := &bench{cfg: cfg, root: root, bin: bin, buildTime: buildTime, w: w}
			var r run
			if trace == 0 {
				r, err = b.endToEnd()
			} else {
				r, err = b.traced()
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			allOK = allOK && r.Correct
			file.Runs = append(file.Runs, r)
			printRun(r)
		}
	}
	if cfg.out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// printRun prints every metric by name with its unit (an end-to-end metric
// at nominal box speed, with the median the clock gave beside it), then the
// result line the driver reads: exactly correct, attempted, failed and
// metrics, each metric exactly value and unit.
func printRun(r run) {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]bare{}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Printf("%-13s %-32s %14.6g %s", r.Workload, d.name, v.Value, v.Unit)
		if v.Raw != 0 {
			fmt.Printf("  (as clocked: %.6g)", v.Raw)
		}
		fmt.Println()
		metrics[d.name] = bare{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Printf("%s\n", line)
}

// bench is one workload's run against one built daemon.
type bench struct {
	cfg       config
	root      string
	bin       string
	buildTime time.Duration
	w         *workload
	next      atomic.Int64 // the stream position shared by every phase
	incorrect bool         // failf was called
}

func (b *bench) tmp() string { return filepath.Join(b.root, ".bench_build", "tmp") }

// failf reports a correctness failure and marks the run incorrect; the run
// goes on, so one report names everything that is wrong.
func (b *bench) failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %s\n", b.w.name, fmt.Sprintf(format, args...))
	b.incorrect = true
}

// setup boots a fresh daemon with default flags and sends the workload's
// fixed warm-up. The returned duration is exec -> first /healthz 200 ->
// warm-up answered; slow is how slow the box ran calibration bursts just
// before and just after.
func (b *bench) setup() (d *daemon, took time.Duration, slow float64, err error) {
	var bursts []time.Duration
	calibrate := func() {
		for i := 0; i < setupBursts; i++ {
			t, _ := burst()
			bursts = append(bursts, t)
		}
	}
	calibrate()
	if d, err = startDaemon(b.bin, b.tmp()); err != nil {
		return nil, 0, 0, err
	}
	b.next.Store(0)
	warm, _ := closedLoop(d, b.w, &b.next, numConns(), time.Minute, int64(b.w.warm), 0)
	took = time.Since(d.exec)
	if warm.failed > 0 || warm.attempted < b.w.warm {
		d.stop()
		return nil, 0, 0, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	b.next.Store(int64(b.w.warm))
	calibrate()
	return d, took, slowdown(bursts), nil
}

// verifyKept recomputes the phase's held-back 1-in-K responses through the
// reference engines, outside every timed window.
func (b *bench) verifyKept(p *phase) int {
	wrong := 0
	for _, kp := range p.kept {
		if err := verify(kp.req, kp.body); err != nil {
			b.failf("request %d (%s): %v", kp.k, classNames[kp.req.class], err)
			wrong++
		}
	}
	return wrong
}

// selfCheck holds the workload to what it claims to exercise, using the
// daemon's own counters over the measured closed-loop phase.
func (b *bench) selfCheck(d promDelta, served int) error {
	builds, err := d.of("probcons_engine_joint_builds_total")
	if err != nil {
		return err
	}
	switch b.w.name {
	case "hot_small":
		// An L1 hit share of exactly 1: no lookup missed or waited.
		missed, err := d.of(`probconsd_cache_misses_total{cache="analyze"}`)
		if err != nil {
			return err
		}
		waited, err := d.of(`probconsd_cache_coalesced_total{cache="analyze"}`)
		if err != nil {
			return err
		}
		if builds != 0 || missed != 0 || waited != 0 {
			b.failf("hot_small ran %v joint builds, %v L1 misses and %v coalesced waits; want all 0", builds, missed, waited)
		}
	case "cold_large":
		if builds != float64(served) {
			b.failf("cold_large ran %v joint builds for %d requests; want exactly one each", builds, served)
		}
	case "domain_churn":
		rest, err := d.share("probcons_engine_rest_table_hits_total", "probcons_engine_rest_table_misses_total")
		if err != nil {
			return err
		}
		if rest <= 0.95 {
			b.failf("domain_churn rest-table hit share %v; want > 0.95 after warm-up", rest)
		}
	}
	return nil
}

func (b *bench) result(trace int, attempted, failed int, metrics map[string]value) run {
	return run{Workload: b.w.name, Trace: trace, Correct: failed == 0 && !b.incorrect,
		Attempted: attempted, Failed: failed, Metrics: metrics}
}

// readings are one closed-loop phase's per-segment raw readings of the four
// timed end-to-end metrics, and how slow the box was in each segment.
type readings struct{ rps, p50, p95, cpu, slow []float64 }

// segmentReadings cuts the closed-loop phase into equal segments and reads
// each end-to-end metric, and the box's slowdown, once per segment.
func segmentReadings(p *phase, segments int) readings {
	seg := p.nominal / time.Duration(segments)
	lats := make([][]float64, segments)
	for _, s := range p.samples {
		if i := int(s.end / seg); i < segments {
			lats[i] = append(lats[i], float64(s.lat)/1e6)
		}
	}
	bursts := make([][]time.Duration, segments)
	var all []time.Duration
	for _, s := range p.bursts {
		if i := int(s.end / seg); i < segments {
			bursts[i] = append(bursts[i], s.lat)
		}
		all = append(all, s.lat)
	}
	var r readings
	for i, l := range lats {
		r.rps = append(r.rps, float64(len(l))/seg.Seconds())
		r.p50 = append(r.p50, quantile(l, 0.50))
		r.p95 = append(r.p95, quantile(l, 0.95))
		if len(p.cpu) == segments+1 && len(l) > 0 {
			r.cpu = append(r.cpu, (p.cpu[i+1]-p.cpu[i])*1e3/float64(len(l)))
		}
		// A segment in which no worker got to a burst (every connection
		// inside one long request) takes the whole phase's reading.
		if len(bursts[i]) == 0 {
			bursts[i] = all
		}
		r.slow = append(r.slow, slowdown(bursts[i]))
	}
	return r
}

// atNominal reports a metric at the box's nominal speed: each raw reading
// is scaled by how slow the box was while it was taken (a time shrinks by
// the slowdown, a rate grows by it), and the value is the median of the
// scaled readings. The median of the raw readings is kept beside it.
func atNominal(unit string, raw, slow []float64, rate bool) value {
	scaled := make([]float64, len(raw))
	for i, x := range raw {
		if rate {
			scaled[i] = x * slow[i]
		} else {
			scaled[i] = x / slow[i]
		}
	}
	return value{Value: median(append([]float64(nil), scaled...)), Unit: unit, Segments: scaled,
		Spread: spread(scaled), Raw: median(append([]float64(nil), raw...))}
}

// endToEnd is the --trace 0 run: set up several times, then one measured
// closed-loop phase on the last daemon, with every response checked.
func (b *bench) endToEnd() (run, error) {
	var d *daemon
	var setups, setupSlow []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var slow float64
		var err error
		if d, took, slow, err = b.setup(); err != nil {
			return run{}, err
		}
		setups, setupSlow = append(setups, took.Seconds()), append(setupSlow, slow)
	}
	defer d.stop()
	before, _, err := d.scrape()
	if err != nil {
		return run{}, err
	}
	dur := time.Duration(b.cfg.seconds) * time.Second
	segments := max(1, b.cfg.seconds/segmentSeconds)
	p, err := closedLoop(d, b.w, &b.next, numConns(), dur, 0, segments)
	if err != nil {
		return run{}, err
	}
	after, _, err := d.scrape()
	if err != nil {
		return run{}, err
	}
	if p.failed > 0 {
		b.failf("%d of %d requests failed, first: %v", p.failed, p.attempted, p.firstErr)
	}
	if err := b.selfCheck(promDelta{before, after}, p.attempted-p.failed); err != nil {
		return run{}, err
	}
	wrong := b.verifyKept(p)
	r := segmentReadings(p, segments)
	if len(r.cpu) != segments {
		return run{}, fmt.Errorf("a %v segment of the measured phase completed no request", dur/time.Duration(segments))
	}
	fmt.Printf("%-13s box slowdown against nominal, median over segments: %.3f\n", b.w.name, median(append([]float64(nil), r.slow...)))
	return b.result(0, p.attempted, p.failed+wrong, map[string]value{
		"throughput_rps": atNominal("1/s", r.rps, r.slow, true),
		"latency_p50_ms": atNominal("ms", r.p50, r.slow, false),
		"latency_p95_ms": atNominal("ms", r.p95, r.slow, false),
		"cpu_ms_per_req": atNominal("ms", r.cpu, r.slow, false),
		"setup_s":        atNominal("s", setups, setupSlow, false),
	}), nil
}

// traced is the --trace 1 run: half the seconds closed loop and half open
// loop against the daemon (counter deltas, process numbers, open-loop
// tails), then the in-process traced replay and the layer probes.
func (b *bench) traced() (run, error) {
	m := map[string]float64{"probconsd.build_s": b.buildTime.Seconds()}
	d, _, _, err := b.setup()
	if err != nil {
		return run{}, err
	}
	defer d.stop()
	half := time.Duration(b.cfg.seconds) * time.Second / 2
	before, _, err := d.scrape()
	if err != nil {
		return run{}, err
	}
	// One segment: the workers time calibration bursts, so the traced run
	// says how slow the box was while its wall-clock numbers were taken.
	closed, err := closedLoop(d, b.w, &b.next, numConns(), half, 0, 1)
	if err != nil {
		return run{}, err
	}
	m["bench.box_slowdown"] = segmentReadings(closed, 1).slow[0]
	after, scrapeTook, err := d.scrape()
	if err != nil {
		return run{}, err
	}
	delta := promDelta{before, after}
	served := closed.attempted - closed.failed
	if err := b.selfCheck(delta, served); err != nil {
		return run{}, err
	}
	if err := b.counterMetrics(m, delta, closed); err != nil {
		return run{}, err
	}
	open := openLoop(d, b.w, &b.next, b.w.openRPS, half)
	end, _, err := d.scrape()
	if err != nil {
		return run{}, err
	}
	if m["probconsd.rss_peak_mb"], err = d.rssPeakMB(); err != nil {
		return run{}, err
	}
	d.stop() // the replay below gets the box to itself

	attempted, failed := closed.attempted+open.attempted, closed.failed+open.failed
	if failed > 0 {
		b.failf("%d of %d requests failed, first: %v / %v", failed, attempted, closed.firstErr, open.firstErr)
	}
	failed += b.verifyKept(closed) + b.verifyKept(open)
	m["probconsd.error_share"] = float64(failed) / float64(attempted)
	m["probconsd.latency_p99_ms"] = quantile(latencies(closed), 0.99)
	openLat := latencies(open)
	m["probconsd.open_p50_ms"] = quantile(openLat, 0.50)
	m["probconsd.open_p99_ms"] = quantile(openLat, 0.99)
	late := make([]float64, len(open.late))
	for i, l := range open.late {
		late[i] = float64(l) / 1e6
	}
	m["probconsd.open_late_p99_ms"] = quantile(late, 0.99)
	m["probconsd.heap_mb"] = end["probcons_go_heap_bytes"] / (1 << 20)
	m["probconsd.goroutines_end"] = end["probcons_go_goroutines"]
	m["probconsd.gc_pause_p99_ms"] = end.histQuantile("probcons_go_gc_pause_seconds", 0.99) * 1e3
	m["obs.metrics_scrape_ms"] = scrapeTook.Seconds() * 1e3

	replayRec, probeRec, err := b.layerMetrics(m)
	if err != nil {
		return run{}, err
	}
	traceOut := b.cfg.traceOut
	if traceOut == "" {
		traceOut = filepath.Join(b.root, ".bench_build", "spans-"+b.w.name+".json")
	}
	if err := writeSpans(traceOut, replayRec, probeRec); err != nil {
		return run{}, err
	}
	metrics := map[string]value{}
	for _, def := range perLayer {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return run{}, fmt.Errorf("per-layer metric %s was not measured (%v)", def.name, v)
		}
		metrics[def.name] = value{Value: v, Unit: def.unit}
	}
	return b.result(1, attempted, failed, metrics), nil
}

func latencies(p *phase) []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}

// counterMetrics turns the daemon's exact counter deltas over the measured
// closed-loop phase into per-request numbers.
func (b *bench) counterMetrics(m map[string]float64, d promDelta, closed *phase) error {
	served := closed.attempted - closed.failed
	var firstErr error
	of := func(key string) float64 {
		v, err := d.of(key)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	share := func(num string, rest ...string) float64 {
		v, err := d.share(num, rest...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	per := func(key string) float64 { return of(key) / float64(served) }
	m["service.memo_hit_share"] = per("probconsd_memo_hits_total")
	m["qcache.hit_share"] = share(`probconsd_cache_hits_total{cache="analyze"}`,
		`probconsd_cache_misses_total{cache="analyze"}`, `probconsd_cache_coalesced_total{cache="analyze"}`)
	m["qcache.evictions_per_req"] = per(`probconsd_cache_evictions_total{cache="analyze"}`)
	m["qcache.coalesced_per_req"] = per(`probconsd_cache_coalesced_total{cache="analyze"}`)
	m["core.block_cache_hit_share"] = share("probcons_engine_block_cache_hits_total", "probcons_engine_block_cache_misses_total")
	m["core.rest_table_hit_share"] = share("probcons_engine_rest_table_hits_total", "probcons_engine_rest_table_misses_total")
	m["core.result_memo_hits_per_req"] = per("probcons_engine_result_memo_hits_total")
	m["core.pool_allocs_per_kreq"] = 1e3 * per("probcons_engine_evaluator_pool_allocs_total")
	m["dist.joint_builds_per_req"] = per("probcons_engine_joint_builds_total")
	m["dist.parallel_folds_per_req"] = per("probcons_engine_parallel_folds_total")
	m["dist.loo_deflations_per_req"] = per("probcons_engine_loo_deflations_total")
	// What the socket costs: mean send-to-last-byte latency minus the mean
	// time the daemon's own middleware clocked inside the handlers, over the
	// same requests in the same phase.
	var inHandler, handled float64
	for _, ep := range []string{"analyze", "optimize", "tail", "sweep", "batch"} {
		inHandler += of(`probconsd_http_request_seconds_sum{endpoint="` + ep + `"}`)
		handled += of(`probconsd_http_request_seconds_count{endpoint="` + ep + `"}`)
	}
	m["probconsd.http_overhead_us"] = mean(latencies(closed))*1e3 - inHandler/handled*1e6
	m["obs.traces_kept_share"] = (of(`probconsd_traces_kept_total{class="slow"}`) + of(`probconsd_traces_kept_total{class="sampled"}`) +
		of(`probconsd_traces_kept_total{class="error"}`)) / of("probconsd_traces_deposited_total")
	return firstErr
}

// layerMetrics runs the in-process half of the traced run: the workload's
// stream replayed with spans on, replayed again with spans off (the
// difference is what recording costs), and the workload-independent probes.
func (b *bench) layerMetrics(m map[string]float64) (replayRec, probeRec *recorder, err error) {
	w := b.w
	l := newLayers()
	off := &recorder{}
	if err := l.replay(w, off, 0, w.warm, 0); err != nil {
		return nil, nil, fmt.Errorf("replay warm-up: %w", err)
	}
	// Traced and untraced chunks alternate, so drift in the box or the
	// heap lands on both sides of the overhead ratio.
	rec := &recorder{on: true, stream: w.name, t0: time.Now()}
	chunk, coldEvery := max(2, w.replay/20), max(1, w.replay/coldSamples)
	var tracedWall, untracedWall time.Duration
	next := w.warm
	for done := 0; done < w.replay; done += chunk {
		start := time.Now()
		if err := l.replay(w, rec, next, chunk, coldEvery); err != nil {
			return nil, nil, fmt.Errorf("traced replay: %w", err)
		}
		tracedWall += time.Since(start)
		start = time.Now()
		if err := l.replay(w, off, next+chunk, chunk/2, coldEvery); err != nil {
			return nil, nil, fmt.Errorf("untraced replay: %w", err)
		}
		untracedWall += time.Since(start)
		next += chunk + chunk/2
	}
	m["bench.trace_overhead_share"] = tracedWall.Seconds()/untracedWall.Seconds()*float64(chunk/2)/float64(chunk) - 1
	m["service.allocs_per_req"], m["service.bytes_per_req"] = l.handlerAllocs(w, next, min(w.replay, 500))

	for span, name := range map[string]string{
		"service.decode": "service.decode_us", "service.resolve": "service.resolve_us", "service.encode": "service.encode_us",
		"service.call": "service.analyze_us", "service.handler": "service.handler_us", "core.fingerprint": "core.fingerprint_us",
		"core.engine_cold": "core.engine_cold_us", "dist.joint_build": "dist.joint_build_us", "dist.tail_fold": "dist.tail_fold_us",
	} {
		m[name] = rec.p50(span)
	}
	// core.engine_us is the pooled evaluator on the stream in order. On a
	// stream the cache answers (hot_small) the engine never runs in the
	// measured range: it reads 0 there, which is the point.
	m["core.engine_us"] = rec.p50("core.engine")
	m["service.unattributed_us"] = unattributed(rec)
	// Cells one from-scratch joint build updates: node i folds into a
	// triangle of (i+1)(i+2)/2 cells. Computed from the stream's fleet
	// sizes, not measured.
	var cells []float64
	for _, s := range rec.spans {
		if s.Name != "dist.joint_build" {
			continue
		}
		if d, err := decodeRequest(w.request(s.Req)); err == nil && d.query != nil {
			var c float64
			for i := 1; i <= d.query.Model.N; i++ {
				c += float64((i + 1) * (i + 2) / 2)
			}
			cells = append(cells, c)
		}
	}
	m["dist.cells_per_build"] = mean(cells)

	probe := &recorder{on: true, stream: "probe", t0: time.Now()}
	pm, err := probes(probe, b.cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range pm {
		m[k] = v
	}
	return rec, probe, nil
}

// unattributed is the part of Server.Analyze the layer spans do not
// explain: per analyze request, the opaque call minus resolve, fingerprint
// and the cache span (whose child is the engine), measured on the bench's
// own chain of the same public parts. It must stay small or the
// decomposition is wrong.
func unattributed(rec *recorder) float64 {
	parts := map[int]float64{}
	for _, s := range rec.spans {
		if s.class != classAnalyze {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "service.call":
			parts[s.Req] += d
		case "service.resolve", "core.fingerprint", "qcache.do":
			parts[s.Req] -= d
		}
	}
	rest := make([]float64, 0, len(parts))
	for _, v := range parts {
		rest = append(rest, v)
	}
	return median(rest)
}
