package obs

import (
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

// TestHistogramExemplars checks exemplar capture: the latest trace ID
// per bucket, empty IDs ignored, aligned with the bucket layout.
func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	h.ObserveExemplar(0.05, "req-a")
	h.ObserveExemplar(0.06, "req-b") // same bucket: replaces req-a
	h.ObserveExemplar(0.5, "")       // no trace: counted, no exemplar
	h.ObserveExemplar(5, "req-c")    // +Inf bucket
	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("got %d exemplar slots, want one per bucket (3)", len(ex))
	}
	if ex[0].TraceID != "req-b" || ex[0].Value != 0.06 {
		t.Fatalf("bucket 0 exemplar = %+v, want req-b@0.06", ex[0])
	}
	if ex[1].TraceID != "" {
		t.Fatalf("bucket 1 must have no exemplar, got %+v", ex[1])
	}
	if ex[2].TraceID != "req-c" {
		t.Fatalf("+Inf bucket exemplar = %+v, want req-c", ex[2])
	}
	if ex[0].Time.IsZero() {
		t.Fatal("exemplar timestamp not set")
	}
	// The observations themselves still count normally.
	if s := h.Snapshot(); s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
}

// TestExemplarsNeverRenderInExposition pins the byte-compatibility
// contract: exemplar capture must not change the 0.0.4 text output.
func TestExemplarsNeverRenderInExposition(t *testing.T) {
	plain := NewRegistry()
	tagged := NewRegistry()
	hp := plain.Histogram("test_seconds", "h.", []float64{0.1, 1}, nil)
	ht := tagged.Histogram("test_seconds", "h.", []float64{0.1, 1}, nil)
	for _, v := range []float64{0.05, 0.5, 2} {
		hp.Observe(v)
		ht.ObserveExemplar(v, "req-x")
	}
	var a, b strings.Builder
	if err := plain.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := tagged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exemplars changed the exposition:\nplain:\n%s\ntagged:\n%s", a.String(), b.String())
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
