package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// referenceHistogram is the obviously-correct implementation the lock-free
// Histogram is pinned against: store every observation, count per bucket
// by scanning.
type referenceHistogram struct {
	bounds []float64
	obs    []float64
}

func (r *referenceHistogram) observe(v float64) { r.obs = append(r.obs, v) }

func (r *referenceHistogram) counts() []int64 {
	out := make([]int64, len(r.bounds)+1)
	for _, v := range r.obs {
		i := 0
		for i < len(r.bounds) && v > r.bounds[i] {
			i++
		}
		out[i]++
	}
	return out
}

func (r *referenceHistogram) sum() float64 {
	s := 0.0
	for _, v := range r.obs {
		s += v
	}
	return s
}

func TestHistogramMatchesReference(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	h := NewHistogram(bounds)
	ref := &referenceHistogram{bounds: bounds}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		var v float64
		switch i % 5 {
		case 0:
			v = bounds[rng.Intn(len(bounds))] // exactly on a bound: le is inclusive
		case 1:
			v = rng.Float64() * 20 // beyond the last bound half the time
		case 2:
			v = 0
		default:
			v = math.Exp(rng.NormFloat64()*3 - 5)
		}
		h.Observe(v)
		ref.observe(v)
	}
	s := h.Snapshot()
	want := ref.counts()
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if s.Count != int64(len(ref.obs)) {
		t.Errorf("count = %d, want %d", s.Count, len(ref.obs))
	}
	// The CAS sum adds in observation order, same as the reference loop,
	// so the totals are bit-identical (single-threaded here).
	if s.Sum != ref.sum() {
		t.Errorf("sum = %v, want %v", s.Sum, ref.sum())
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket counts total %d != count %d", total, s.Count)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines under -race: no observation may be lost and the sum must
// match the exact total (each goroutine adds integers, so float addition
// is associative here).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(rng.Intn(4))) // 0,1,2,3 — exactly representable
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
	if s.Sum != math.Trunc(s.Sum) || s.Sum < 0 || s.Sum > 3*workers*perWorker {
		t.Fatalf("sum = %v out of range", s.Sum)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Errorf("Observe allocates %v/op, want 0", n)
	}
	c := &Counter{}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	g := &Gauge{}
	if n := testing.AllocsPerRun(1000, func() { g.Inc(); g.Dec() }); n != 0 {
		t.Errorf("Gauge ops allocate %v/op, want 0", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	// 100 observations uniform over (0, 4]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 2.0, 0.05},
		{0.25, 1.0, 0.05},
		{0.99, 3.96, 0.06},
		{1.0, 4.0, 1e-12},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := s.Mean(); math.Abs(got-2.02) > 1e-9 {
		t.Errorf("mean = %v, want 2.02", got)
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	for _, bounds := range [][]float64{
		{1, 1},
		{2, 1},
		{math.Inf(1)},
		{math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: no panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryDuplicateAndMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "help", nil)
	mustPanic("duplicate unlabeled", func() { r.Counter("a_total", "help", nil) })
	mustPanic("kind mismatch", func() { r.Gauge("a_total", "help", Labels{"x": "1"}) })
	mustPanic("help mismatch", func() { r.Counter("a_total", "other", Labels{"x": "1"}) })
	r.Counter("a_total", "help", Labels{"x": "1"})
	mustPanic("duplicate labeled", func() { r.Counter("a_total", "help", Labels{"x": "1"}) })
	mustPanic("bad metric name", func() { r.Counter("7bad", "help", nil) })
	mustPanic("bad label name", func() { r.Counter("ok_total", "help", Labels{"0bad": "v"}) })
	// Distinct label sets under one family are fine.
	r.Counter("a_total", "help", Labels{"x": "2"})
}

// TestSpans pins the trace's span recorder: spans come back in
// observation order with their durations, and a nil trace records
// nothing.
func TestSpans(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Since("x", time.Now()) // must not panic
	if nilTrace.AllSpans() != nil {
		t.Error("nil trace must report no spans")
	}
	tr := &Trace{}
	tr.Since("fingerprint", time.Now())
	tr.Since("cache_lookup", time.Now().Add(-time.Millisecond))
	all := tr.AllSpans()
	if len(all) != 2 || all[0].Name != "fingerprint" || all[1].Name != "cache_lookup" {
		t.Fatalf("spans = %+v", all)
	}
	if all[1].Duration < time.Millisecond {
		t.Errorf("Since span too short: %v", all[1].Duration)
	}
}

// TestHistogramCountDerivedFromBuckets pins the satellite fix: the
// snapshot's Count is derived from the same bucket counters the buckets
// render from, so the +Inf cumulative bucket always equals _count even
// mid-observation — the two can never disagree the way a separate count
// atomic could right after startup.
func TestHistogramCountDerivedFromBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 5, 0.5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if s.Count != total || s.Count != 4 {
		t.Fatalf("Count = %d, bucket sum = %d, want both 4", s.Count, total)
	}
}

// depositNamed files one synthetic request under its own ID.
func depositNamed(s *TraceStore, id, endpoint string, d time.Duration) {
	t := s.Acquire()
	t.ID = id
	t.Endpoint = endpoint
	t.Status = 200
	t.Duration = d
	s.Deposit(t)
}

// TestHistogramExemplars checks the store's exemplar read: per endpoint
// and bucket the newest held trace, bucketed by Observe's inclusive
// bounds with the +Inf bucket last, and never a trace the store has
// dropped.
func TestHistogramExemplars(t *testing.T) {
	upper := []float64{0.1, 1}
	// Capacity 8: four retained (slow) and four recent records.
	s := NewTraceStore(TraceStoreOptions{Capacity: 8, SampleK: -1, SlowThreshold: fixedSlow(2 * time.Second)})
	depositNamed(s, "req-drop", "analyze", 50*time.Millisecond) // pushed out below
	depositNamed(s, "req-inf", "analyze", 5*time.Second)        // slow: retained
	depositNamed(s, "req-edge0", "analyze", 100*time.Millisecond)
	depositNamed(s, "req-edge1", "analyze", time.Second)
	depositNamed(s, "req-b0", "analyze", 20*time.Millisecond) // newer than req-edge0
	depositNamed(s, "req-sweep", "sweep", 500*time.Millisecond)

	ex := s.Exemplars(upper)
	if len(ex) != 2 {
		t.Fatalf("exemplars for %d endpoints, want analyze and sweep: %+v", len(ex), ex)
	}
	for _, tc := range []struct {
		endpoint string
		ids      []string // per bucket, "" for none
	}{
		{"analyze", []string{"req-b0", "req-edge1", "req-inf"}},
		{"sweep", []string{"", "req-sweep", ""}},
	} {
		got := ex[tc.endpoint]
		if len(got) != len(upper)+1 {
			t.Fatalf("%s: %d buckets, want %d", tc.endpoint, len(got), len(upper)+1)
		}
		for i, id := range tc.ids {
			if got[i].ID != id {
				t.Errorf("%s bucket %d names %q, want %q", tc.endpoint, i, got[i].ID, id)
			}
		}
	}
	b0 := ex["analyze"][0]
	held := s.Query(TraceFilter{ID: "req-b0"})
	if len(held) != 1 || b0.Duration != 20*time.Millisecond || !b0.Start.Equal(held[0].Start) {
		t.Fatalf("bucket 0 exemplar = %+v, want req-b0's start and 20 ms", b0)
	}

	// However the rings turn over, every exemplar names a held trace.
	for i := 0; i < 200; i++ {
		d := time.Duration(i%7) * 300 * time.Millisecond
		depositNamed(s, fmt.Sprintf("req-%d", i), []string{"analyze", "sweep"}[i%2], d)
		for ep, buckets := range s.Exemplars(upper) {
			for b, e := range buckets {
				if e.ID != "" && len(s.Query(TraceFilter{ID: e.ID})) != 1 {
					t.Fatalf("after deposit %d, %s bucket %d names %q, which the store no longer holds", i, ep, b, e.ID)
				}
			}
		}
	}
}

// TestExemplarsNeverRenderInExposition pins the byte-compatibility
// contract: exemplars are read from the trace store, and no trace ID
// reaches the 0.0.4 text exposition of the histogram they annotate.
func TestExemplarsNeverRenderInExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "h.", []float64{0.1, 1}, nil)
	s := NewTraceStore(TraceStoreOptions{SampleK: -1})
	for i, v := range []float64{0.05, 0.5, 2} {
		d := time.Duration(v * float64(time.Second))
		h.Observe(d.Seconds())
		depositNamed(s, fmt.Sprintf("req-x%d", i), "test", d)
	}
	named := 0
	for _, e := range s.Exemplars([]float64{0.1, 1})["test"] {
		if e.ID != "" {
			named++
		}
	}
	if named != 3 {
		t.Fatalf("%d buckets carry an exemplar, want 3", named)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if text := b.String(); strings.Contains(text, "req-x") || strings.Contains(text, " # {") {
		t.Fatalf("exemplars reached the exposition:\n%s", text)
	}
}

// TestFindCounter pins the registry lookup the trace store's engine
// counter deltas rely on.
func TestFindCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_widgets_total", "w.", Labels{"kind": "a"})
	c.Add(3)
	if got := r.FindCounter("test_widgets_total", Labels{"kind": "a"}); got != c {
		t.Fatalf("FindCounter returned %p, want %p", got, c)
	}
	if r.FindCounter("test_widgets_total", Labels{"kind": "b"}) != nil {
		t.Fatal("unknown label set must return nil")
	}
	if r.FindCounter("test_missing_total", nil) != nil {
		t.Fatal("unknown family must return nil")
	}
	r.Gauge("test_level", "g.", nil)
	if r.FindCounter("test_level", nil) != nil {
		t.Fatal("non-counter family must return nil")
	}
}
