package obs

import (
	"runtime"
	"strings"
	"testing"
)

// scrape renders a registry's full text exposition.
func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRuntimeMetricsRegistered checks the probcons_go_* family renders
// on a fresh registry with live, plausible values.
func TestRuntimeMetricsRegistered(t *testing.T) {
	r := NewRegistry()
	registerRuntimeMetrics(r)
	runtime.GC() // populate the GC pause histogram
	text := scrape(t, r)
	for _, want := range []string{
		"# TYPE probcons_go_goroutines gauge",
		"# TYPE probcons_go_heap_bytes gauge",
		"# TYPE probcons_go_gc_cycles_total counter",
		"# TYPE probcons_go_alloc_bytes_total counter",
		"# TYPE probcons_go_gc_pause_seconds histogram",
		"# TYPE probcons_go_sched_latency_seconds histogram",
		"probcons_go_gc_pause_seconds_bucket{le=\"+Inf\"}",
		"probcons_go_gc_pause_seconds_sum",
		"probcons_go_gc_pause_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if readRuntimeValue(rmGoroutines) < 1 {
		t.Fatal("goroutine count must be at least 1 (this test's goroutine)")
	}
	if readRuntimeValue(rmHeapBytes) <= 0 {
		t.Fatal("live heap bytes must be positive")
	}
	// The GC above completed a cycle, and a test binary has allocated.
	cycles, allocated := readRuntimeValue(rmGCCycles), readRuntimeValue(rmAllocBytes)
	if cycles < 1 || allocated <= 0 {
		t.Fatalf("gc cycles %v and allocated bytes %v, want both positive", cycles, allocated)
	}
	allocSink = make([]byte, 1<<20)
	runtime.GC()
	if readRuntimeValue(rmGCCycles) <= cycles || readRuntimeValue(rmAllocBytes) < allocated+1<<20 {
		t.Fatal("the runtime counters must count a GC cycle and a 1 MiB allocation")
	}
}

// allocSink keeps the test's allocation from being optimized away.
var allocSink []byte

// TestReadRuntimeHistogramShape checks the Float64Histogram conversion:
// cumulative count equals the sum of bucket counts, bounds are strictly
// increasing, and the estimated sum is non-negative and finite.
func TestReadRuntimeHistogramShape(t *testing.T) {
	runtime.GC()
	s := readRuntimeHistogram(rmGCPauses)
	if len(s.Counts) != len(s.Upper)+1 {
		t.Fatalf("counts/bounds shape mismatch: %d counts, %d bounds", len(s.Counts), len(s.Upper))
	}
	var total int64
	for _, c := range s.Counts {
		if c < 0 {
			t.Fatalf("negative bucket count: %v", s.Counts)
		}
		total += c
	}
	if total != s.Count {
		t.Fatalf("Count %d != sum of bucket counts %d", s.Count, total)
	}
	for i := 1; i < len(s.Upper); i++ {
		if s.Upper[i] <= s.Upper[i-1] {
			t.Fatalf("bucket bounds not increasing at %d: %v", i, s.Upper[:i+1])
		}
	}
	if s.Sum < 0 || s.Sum != s.Sum {
		t.Fatalf("estimated sum must be finite and non-negative, got %v", s.Sum)
	}
}

// TestReadRuntimeHistogramUnknownMetric pins the defensive fallback: an
// unknown name yields the minimal valid snapshot, never a panic in the
// exposition writer.
func TestReadRuntimeHistogramUnknownMetric(t *testing.T) {
	s := readRuntimeHistogram("/not/a/metric:seconds")
	if len(s.Counts) != 1 || len(s.Upper) != 0 || s.Count != 0 {
		t.Fatalf("fallback snapshot mismatch: %+v", s)
	}
	r := NewRegistry()
	r.HistogramFunc("probcons_test_bad_runtime_seconds", "fallback shape.", nil,
		func() HistogramSnapshot { return s })
	text := scrape(t, r)
	if !strings.Contains(text, "probcons_test_bad_runtime_seconds_bucket{le=\"+Inf\"} 0") {
		t.Fatalf("fallback snapshot did not render: %s", text)
	}
}

// TestDefaultRegistryHasRuntimeFamily pins the init-time registration on
// the process-global registry.
func TestDefaultRegistryHasRuntimeFamily(t *testing.T) {
	text := scrape(t, Default())
	if !strings.Contains(text, "probcons_go_goroutines") {
		t.Fatal("default registry missing probcons_go_goroutines")
	}
}
