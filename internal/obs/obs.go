package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate, so counters may sit on the hottest paths of the engines
// (every joint-DP build and cache hit bumps one).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to remain monotone; nothing
// enforces it, matching the Prometheus counter contract).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can go up and down —
// in-flight requests, active sweep cells, pool sizes. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// atomicFloat is a float64 accumulator updated with a compare-and-swap
// loop: lock-free, allocation-free, and exact for the additions the
// histograms perform (each CAS either lands or retries on a fresh read,
// so no observation is ever lost or double-counted).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram with a lock-free, zero-allocation
// Observe: one linear scan over the (few dozen at most) bucket bounds,
// one atomic bucket increment, and one CAS sum accumulation. Bucket
// bounds are fixed at construction (upper bounds, inclusive, ascending;
// an implicit +Inf bucket catches the rest), matching the Prometheus
// histogram model.
//
// There is deliberately no separate total-count atomic: Snapshot derives
// Count as the sum of the bucket counts, so the +Inf cumulative bucket
// and _count can never disagree, whatever Observes are in flight (the
// /statsz summaries and /metrics exposition read the same snapshot). The
// bucket/sum pair of one Observe is still individually atomic, not
// joint: a concurrent scrape can see a count ahead of the sum by an
// in-flight observation — bounded skew, the standard tradeoff for a
// lock-free hot path.
type Histogram struct {
	upper     []float64 // ascending upper bounds, +Inf excluded
	counts    []atomic.Int64
	sum       atomicFloat
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. Bounds must be strictly ascending and finite; the +Inf bucket
// is implicit. NewHistogram copies bounds, so callers may reuse the
// slice. Panics on invalid bounds: histogram construction happens at
// registration time, where a bad bucket layout is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bucket bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("obs: histogram bucket bounds must be strictly ascending")
		}
	}
	return &Histogram{
		upper:     append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// bucketIndex returns the index of the bucket v falls in (len(upper) is
// the +Inf bucket).
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Exemplar is a recent observation annotated with the trace it came
// from — the OpenMetrics exemplar model, stored per bucket so a latency
// spike in one bucket always points at a concrete request ID the traces
// API can resolve.
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

// ObserveExemplar records one value and, when traceID is non-empty,
// replaces the bucket's exemplar with it. The exemplar store costs one
// allocation; hot paths that must stay allocation-free pass "" (plain
// Observe semantics) or call Observe directly.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Exemplars snapshots the per-bucket exemplars, aligned with Snapshot's
// Counts (the final entry is the +Inf bucket). Buckets that never saw an
// exemplar have a zero Exemplar (empty TraceID). The 0.0.4 text
// exposition never renders exemplars — /metrics stays byte-compatible —
// so this accessor is how they surface (the traces API and /statsz).
func (h *Histogram) Exemplars() []Exemplar {
	out := make([]Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out[i] = *e
		}
	}
	return out
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state:
// per-bucket (non-cumulative) counts aligned with Upper, plus the
// implicit +Inf bucket as the final Counts entry.
type HistogramSnapshot struct {
	Upper  []float64 // ascending upper bounds; len(Counts) == len(Upper)+1
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state. Count is derived from
// the bucket counts read into this snapshot — never a separate atomic —
// so Sum(Counts) == Count holds for every snapshot by construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Upper:  h.upper,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing it — the same estimate Prometheus's
// histogram_quantile computes. Values in the +Inf bucket clamp to the
// highest finite bound. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.Upper) { // +Inf bucket: clamp to the last finite bound
			return s.Upper[len(s.Upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Upper[i-1]
		}
		hi := s.Upper[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Upper[len(s.Upper)-1]
}

// LatencyBuckets is the shared bucket layout for request and engine-stage
// latency histograms: exponential from 1µs (an L1 cache hit is ~1.5µs)
// to 10s (the work-bound ceiling on one request), so both a cache hit and
// a pathological slow query land in resolvable buckets.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}
