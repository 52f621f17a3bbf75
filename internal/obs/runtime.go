package obs

import (
	"math"
	"runtime/metrics"
)

// This file is the runtime telemetry collector: a probcons_go_* family
// on the process-global registry, backed by runtime/metrics and read at
// scrape time (no background goroutine, no sampling loop — the runtime
// already maintains these values). Gauges and counters read single
// samples; histograms convert the runtime's Float64Histogram into a
// HistogramSnapshot via HistogramFunc, so /metrics renders GC pauses and
// scheduler latency with the runtime's own bucket layout. The two
// counters make allocation pressure readable from two scrapes: their
// deltas over a request count's are bytes and GC cycles per request.

// Runtime metric names, resolved against runtime/metrics.All.
const (
	rmGoroutines   = "/sched/goroutines:goroutines"
	rmHeapBytes    = "/memory/classes/heap/objects:bytes"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmSchedLatency = "/sched/latencies:seconds"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
)

func init() {
	registerRuntimeMetrics(defaultRegistry)
}

// registerRuntimeMetrics registers the probcons_go_* family on r. Called
// once at package init for the default registry; exported via tests only.
func registerRuntimeMetrics(r *Registry) {
	r.GaugeFunc("probcons_go_goroutines",
		"Goroutines currently live (runtime/metrics /sched/goroutines).", nil,
		func() float64 { return readRuntimeValue(rmGoroutines) })
	r.GaugeFunc("probcons_go_heap_bytes",
		"Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).", nil,
		func() float64 { return readRuntimeValue(rmHeapBytes) })
	r.CounterFunc("probcons_go_gc_cycles_total",
		"GC cycles completed since the process started (runtime/metrics /gc/cycles/total).", nil,
		func() float64 { return readRuntimeValue(rmGCCycles) })
	r.CounterFunc("probcons_go_alloc_bytes_total",
		"Bytes allocated on the heap since the process started, freed or not (runtime/metrics /gc/heap/allocs).", nil,
		func() float64 { return readRuntimeValue(rmAllocBytes) })
	r.HistogramFunc("probcons_go_gc_pause_seconds",
		"Distribution of stop-the-world GC pause latencies (runtime/metrics; _sum is estimated from bucket midpoints).", nil,
		func() HistogramSnapshot { return readRuntimeHistogram(rmGCPauses) })
	r.HistogramFunc("probcons_go_sched_latency_seconds",
		"Distribution of goroutine scheduling latencies (runtime/metrics; _sum is estimated from bucket midpoints).", nil,
		func() HistogramSnapshot { return readRuntimeHistogram(rmSchedLatency) })
}

// readRuntimeValue reads one scalar runtime/metrics sample as a float64
// (0 when the metric is unknown to this Go version).
func readRuntimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	default:
		return 0
	}
}

// readRuntimeHistogram reads one runtime/metrics histogram and converts
// it to a HistogramSnapshot. The runtime reports len(Counts)+1 bucket
// boundaries where the first may be -Inf and the last may be +Inf;
// dropping the two outer boundaries maps bucket i onto upper bound
// Buckets[i+1], with the final runtime bucket becoming the implicit +Inf
// bucket. runtime histograms carry no sum, so Sum is estimated from
// bucket midpoints (clamped at zero) — good enough for a mean panel,
// documented in the family help.
func readRuntimeHistogram(name string) HistogramSnapshot {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return HistogramSnapshot{Counts: make([]int64, 1)}
	}
	h := s[0].Value.Float64Histogram()
	if h == nil || len(h.Buckets) != len(h.Counts)+1 || len(h.Counts) == 0 {
		return HistogramSnapshot{Counts: make([]int64, 1)}
	}
	snap := HistogramSnapshot{
		Upper:  append([]float64(nil), h.Buckets[1:len(h.Buckets)-1]...),
		Counts: make([]int64, len(h.Counts)),
	}
	for i, c := range h.Counts {
		n := int64(c)
		snap.Counts[i] = n
		snap.Count += n
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) || lo < 0 {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		snap.Sum += float64(n) * (lo + hi) / 2
	}
	return snap
}
