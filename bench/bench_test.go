package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

func stream(t *testing.T, name string, seed uint64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for k := range out {
		req := w.request(k)
		out[k] = append([]byte(req.path()+" "), req.body...)
	}
	return out
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := stream(t, name, 7, 300), stream(t, name, 7, 300), stream(t, name, 8, 300)
		same := 0
		for k := range a {
			if !bytes.Equal(a[k], b[k]) {
				t.Fatalf("%s: request %d differs between two runs of seed 7", name, k)
			}
			if bytes.Equal(a[k], c[k]) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d requests are identical under seeds 7 and 8", name, same, len(a))
		}
	}
}

func TestSolverMixProportions(t *testing.T) {
	w := solverMix(1)
	var got [numClasses]int
	const n = 2000
	for k := 0; k < n; k++ {
		got[w.request(k).class]++
	}
	want := [numClasses]int{classOptimize: n / 2, classTailExact: n / 5, classSweep: n * 15 / 100, classTailImportance: n / 10, classBatch: n / 20}
	if got != want {
		t.Errorf("class counts %v, want %v (order %v)", got, want, classNames)
	}
}

// The generators append JSON by hand; every body must decode exactly the
// way the daemon decodes it, unknown fields refused.
func TestBodiesDecodeStrictly(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 3)
		for k := 0; k < w.warm+60; k++ {
			if _, err := decodeRequest(w.request(k)); err != nil {
				t.Fatalf("%s request %d: %v\n%s", name, k, err, w.request(k).body)
			}
		}
	}
}

// Drives all four generators against the real handler, so a change to the
// service's wire types or semantics breaks this test, not the next
// benchmark run. Every response gets the reference check.
func TestSmokeAgainstHandler(t *testing.T) {
	for _, name := range workloadNames {
		srv := httptest.NewServer(service.New(service.Options{}).Handler())
		w, _ := newWorkload(name, 5)
		w.verifyEvery = 1
		d := &daemon{addr: strings.TrimPrefix(srv.URL, "http://")}
		var next atomic.Int64
		// Only hot_small's answers depend on its warm-up (the cached
		// verdicts); the others need not pay for theirs here.
		warmN := 4
		if name == "hot_small" {
			warmN = w.warm
		}
		warm, _ := closedLoop(d, w, &next, 2, time.Minute, int64(warmN), 0)
		next.Store(int64(w.warm))
		p, _ := closedLoop(d, w, &next, 2, 300*time.Millisecond, 0, 0)
		srv.Close()
		if warm.failed+p.failed > 0 || p.attempted == 0 {
			t.Fatalf("%s: %d warm-up and %d of %d measured requests failed: %v %v", name, warm.failed, p.failed, p.attempted, warm.firstErr, p.firstErr)
		}
		kept := p.kept
		if len(kept) > 12 {
			kept = kept[:12]
		}
		for _, kp := range kept {
			if err := verify(kp.req, kp.body); err != nil {
				t.Errorf("%s request %d (%s): %v", name, kp.k, classNames[kp.req.class], err)
			}
		}
	}
}

func TestReplayRecordsLayerSpans(t *testing.T) {
	w := hotSmall(1)
	rec := &recorder{on: true, stream: w.name, t0: time.Now()}
	if err := newLayers().replay(w, rec, 0, 20, 5); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"request", "service.decode", "service.call", "service.encode", "service.handler",
		"service.resolve", "core.fingerprint", "qcache.do", "core.engine", "core.engine_cold", "dist.joint_build", "dist.tail_fold"} {
		if len(rec.micros(name, -1)) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	for i, s := range rec.spans {
		if s.Parent >= i || s.End < s.Start {
			t.Fatalf("span %d %+v: parent must precede it and time must run forward", i, s)
		}
		// A child lies inside the span that caused it (a miss's engine
		// span inside its cache span), so self time = span - children.
		if s.Parent >= 0 && (s.Start < rec.spans[s.Parent].Start || s.End > rec.spans[s.Parent].End) {
			t.Fatalf("span %d %+v is not inside its parent %+v", i, s, rec.spans[s.Parent])
		}
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm([]byte("# HELP x y\n# TYPE x counter\nhits{cache=\"analyze\"} 10\nmisses 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, _ := parseProm([]byte("hits{cache=\"analyze\"} 40\nmisses 14\n" +
		"p_bucket{le=\"0.001\"} 90\np_bucket{le=\"0.01\"} 100\np_bucket{le=\"+Inf\"} 100\n"))
	d := promDelta{before, after}
	if v, err := d.of(`hits{cache="analyze"}`); err != nil || v != 30 {
		t.Errorf("delta = %v, %v; want 30", v, err)
	}
	if v, err := d.share(`hits{cache="analyze"}`, "misses"); err != nil || v != 0.75 {
		t.Errorf("share = %v, %v; want 0.75", v, err)
	}
	if _, err := d.of("renamed_total"); err == nil {
		t.Error("a sample missing from the scrape must be an error, not zero")
	}
	if q := after.histQuantile("p", 0.95); q <= 0.001 || q >= 0.01 {
		t.Errorf("p95 = %v, want inside the (0.001, 0.01] bucket", q)
	}
}

// A box that runs the bursts twice as slowly as nominal halves the times and
// doubles the rate it reports; the raw median is kept as clocked.
func TestAtNominal(t *testing.T) {
	if got := slowdown([]time.Duration{3 * nominalBurst, 2 * nominalBurst, 2 * nominalBurst}); got != 2 {
		t.Fatalf("slowdown = %v, want 2", got)
	}
	slow := []float64{2, 1, 2}
	if v := atNominal("ms", []float64{10, 5, 10}, slow, false); v.Value != 5 || v.Raw != 10 || v.Spread != 0 {
		t.Errorf("time at nominal = %+v, want value 5, raw 10, spread 0", v)
	}
	if v := atNominal("1/s", []float64{100, 200, 100}, slow, true); v.Value != 200 || v.Raw != 100 {
		t.Errorf("rate at nominal = %+v, want value 200, raw 100", v)
	}
	if took, _ := burst(); took <= 0 {
		t.Errorf("burst took %v", took)
	}
}

func TestJudge(t *testing.T) {
	v := func(x, spread float64) value { return value{Value: x, Spread: spread} }
	for _, c := range []struct {
		old, new value
		higher   bool
		want     string
	}{
		{v(100, 0.02), v(85, 0.02), true, verdictWorse},
		{v(100, 0.02), v(115, 0.02), true, verdictBetter},
		{v(1.0, 0.02), v(1.2, 0.02), false, verdictWorse},
		{v(1.0, 0.02), v(1.05, 0.02), false, verdictUnchanged},
		{v(1.0, 0.30), v(1.05, 0.02), false, verdictUnresolved},
	} {
		if got, _ := judge(c.old, c.new, c.higher, 0.10); got != c.want {
			t.Errorf("judge(%v -> %v, higher=%v) = %s, want %s", c.old.Value, c.new.Value, c.higher, got, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s", i, spec.Workloads[i], name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || (got[i].Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program {%s %s}", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
