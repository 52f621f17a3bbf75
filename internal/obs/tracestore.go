package obs

import (
	"sort"
	"sync"
	"time"
)

// This file is the request flight recorder: a fixed-capacity ring-buffer
// store the serving middleware deposits every completed request's trace
// into, with Dapper-style tail-based retention. Always record (cheaply,
// from a free list, zero steady-state allocations), then keep the traces
// that turn out to matter: slow requests, errors, and a deterministic
// 1-in-K sample survive until capacity forces them out; everything else
// lands in a "recent" ring that is explicitly droppable under pressure.
// The store never looks at the wire — endpoints, status codes, and cache
// verdicts are strings/ints the service layer fills in — so it stays as
// dependency-free as the rest of obs.

// Retention classes. Every deposited trace gets exactly one.
const (
	KeepSlow    = "slow"    // duration >= the per-endpoint slow threshold
	KeepError   = "error"   // status >= 400
	KeepSampled = "sampled" // deterministic 1-in-K survivor
	KeepRecent  = "recent"  // droppable: overwritten first under pressure
)

// TraceEvent is one point-in-time annotation on a trace — a cache
// eviction, a pressure signal — with its offset from the request start.
type TraceEvent struct {
	Name   string
	Detail string
	Offset time.Duration
}

// Trace is one request's flight record: identity, outcome, the span tree
// (embedded Spans), point events, and a delta of the engine counters
// across the request. Records are owned by the store and recycled; the
// query API returns deep copies. All recording methods are nil-safe so
// un-instrumented callers (library use, sweep cells) pass nil and pay
// nothing.
type Trace struct {
	ID       string
	Endpoint string
	Status   int
	Start    time.Time
	Duration time.Duration
	Cache    string // cache verdict: l1_hit, l2_hit, coalesced, miss
	Error    string
	Keep     string // retention class, assigned at Deposit
	Seq      uint64 // deposit sequence number, assigned at Deposit

	Spans  Spans
	Events []TraceEvent

	// CounterNames names the engine counters snapshotted around the
	// request; CounterDelta is each counter's increase during it. The
	// names slice is shared with the store and must not be mutated.
	CounterNames []string
	CounterDelta []int64
	counterStart []int64
}

// Since records a span covering start..now. Nil-safe.
func (t *Trace) Since(name string, start time.Time) {
	if t == nil {
		return
	}
	t.Spans.Since(name, start)
}

// Event records one point-in-time annotation. Nil-safe.
func (t *Trace) Event(name, detail string) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, TraceEvent{Name: name, Detail: detail, Offset: time.Since(t.Start)})
}

// SetCache records the cache verdict. Nil-safe.
func (t *Trace) SetCache(verdict string) {
	if t == nil {
		return
	}
	t.Cache = verdict
}

// SetError records the error a failed request was answered with. Nil-safe.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.Error = msg
}

// AllSpans returns the recorded spans in observation order (nil for a
// nil trace). The slice is owned by the trace.
func (t *Trace) AllSpans() []Span {
	if t == nil {
		return nil
	}
	return t.Spans.All()
}

// reset clears a record for reuse, keeping its allocated slices.
func (t *Trace) reset() {
	t.ID, t.Endpoint, t.Cache, t.Error, t.Keep = "", "", "", "", ""
	t.Status = 0
	t.Seq = 0
	t.Start = time.Time{}
	t.Duration = 0
	t.Spans.spans = t.Spans.spans[:0]
	t.Events = t.Events[:0]
	for i := range t.CounterDelta {
		t.CounterDelta[i] = 0
		t.counterStart[i] = 0
	}
}

// snapshot deep-copies a record so the caller's view survives recycling.
func (t *Trace) snapshot() Trace {
	cp := *t
	cp.Spans = Spans{spans: append([]Span(nil), t.Spans.spans...)}
	cp.Events = append([]TraceEvent(nil), t.Events...)
	cp.CounterDelta = append([]int64(nil), t.CounterDelta...)
	cp.counterStart = nil
	return cp
}

// CounterRef names one live registry counter the store snapshots around
// every request.
type CounterRef struct {
	Name string
	C    *Counter
}

// TraceStoreOptions configures a TraceStore. Zero values take defaults.
type TraceStoreOptions struct {
	// Capacity is the total record count, split evenly between the
	// retained ring (slow/error/sampled) and the recent ring (default
	// 1024, minimum 2).
	Capacity int
	// SampleK deterministically retains every Kth deposit regardless of
	// outcome (default 64; negative disables sampling). The pinned base
	// rate that guarantees /v1/traces is never empty under healthy,
	// fast-only traffic.
	SampleK int
	// SlowThreshold returns the endpoint's slow-retention threshold at
	// deposit time; <= 0 (or a nil func) disables slow retention. Live
	// derivation from the latency histograms happens on the caller's
	// side — the store just asks.
	SlowThreshold func(endpoint string) time.Duration
	// Counters are snapshotted at Acquire and differenced at Deposit
	// into the trace's counter delta.
	Counters []CounterRef
}

// traceRing is a fixed-capacity overwrite-oldest ring of trace records.
type traceRing struct {
	buf  []*Trace
	head int // next write slot
	n    int // occupied slots
}

// push stores t, returning the overwritten record when full (nil
// otherwise).
func (r *traceRing) push(t *Trace) *Trace {
	var evicted *Trace
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
	} else {
		r.n++
	}
	r.buf[r.head] = t
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	return evicted
}

// each calls fn on every held record, newest first.
func (r *traceRing) each(fn func(*Trace)) {
	for i := 1; i <= r.n; i++ {
		idx := r.head - i
		if idx < 0 {
			idx += len(r.buf)
		}
		fn(r.buf[idx])
	}
}

// TraceStore is the flight recorder: two rings (retained + recent) and a
// free list behind one mutex. Acquire and Deposit each take the lock
// once and never allocate in steady state (records cycle free list →
// in-flight → ring → free list); the lock is held for pointer shuffling
// only, never for rendering, so it is cheap enough for every request.
type TraceStore struct {
	mu       sync.Mutex
	retained traceRing
	recent   traceRing
	free     []*Trace
	seq      uint64

	sampleK  int
	slow     func(string) time.Duration
	counters []CounterRef
	names    []string

	deposited       Counter
	keptSlow        Counter
	keptError       Counter
	keptSampled     Counter
	droppedRecent   Counter
	droppedRetained Counter
}

// NewTraceStore builds a store from opts.
func NewTraceStore(opts TraceStoreOptions) *TraceStore {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.Capacity < 2 {
		opts.Capacity = 2
	}
	if opts.SampleK == 0 {
		opts.SampleK = 64
	}
	if opts.SampleK < 0 {
		opts.SampleK = 0
	}
	half := opts.Capacity / 2
	s := &TraceStore{
		retained: traceRing{buf: make([]*Trace, opts.Capacity-half)},
		recent:   traceRing{buf: make([]*Trace, half)},
		sampleK:  opts.SampleK,
		slow:     opts.SlowThreshold,
		counters: opts.Counters,
	}
	s.names = make([]string, len(opts.Counters))
	for i, c := range opts.Counters {
		s.names[i] = c.Name
	}
	return s
}

// Acquire returns a record with Start and the counter baseline set. The
// caller fills in identity/outcome, records spans and events, and hands
// the record back with Deposit exactly once.
func (s *TraceStore) Acquire() *Trace {
	s.mu.Lock()
	var t *Trace
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if t == nil {
		t = &Trace{
			Events:       make([]TraceEvent, 0, 4),
			CounterNames: s.names,
			CounterDelta: make([]int64, len(s.counters)),
			counterStart: make([]int64, len(s.counters)),
		}
		t.Spans.spans = make([]Span, 0, 8)
	}
	t.Start = time.Now()
	for i := range s.counters {
		t.counterStart[i] = s.counters[i].C.Load()
	}
	return t
}

// Deposit files a completed record under its retention class: errors and
// slow requests always land in the retained ring, as does every
// SampleK-th deposit; everything else goes to the recent ring, where the
// oldest entry is dropped first under pressure. Duration defaults to
// time.Since(Start) when the caller did not set it. The record belongs
// to the store afterwards.
func (s *TraceStore) Deposit(t *Trace) {
	if t == nil {
		return
	}
	if t.Duration == 0 {
		t.Duration = time.Since(t.Start)
	}
	for i := range s.counters {
		t.CounterDelta[i] = s.counters[i].C.Load() - t.counterStart[i]
	}
	// The threshold may read histogram snapshots; resolve it outside the
	// store lock.
	var slowAt time.Duration
	if s.slow != nil {
		slowAt = s.slow(t.Endpoint)
	}
	s.deposited.Inc()

	s.mu.Lock()
	s.seq++
	t.Seq = s.seq
	keep := KeepRecent
	switch {
	case t.Status >= 400:
		keep = KeepError
		s.keptError.Inc()
	case slowAt > 0 && t.Duration >= slowAt:
		keep = KeepSlow
		s.keptSlow.Inc()
	case s.sampleK > 0 && s.seq%uint64(s.sampleK) == 0:
		keep = KeepSampled
		s.keptSampled.Inc()
	}
	t.Keep = keep
	var evicted *Trace
	if keep == KeepRecent {
		if evicted = s.recent.push(t); evicted != nil {
			s.droppedRecent.Inc()
		}
	} else {
		if evicted = s.retained.push(t); evicted != nil {
			s.droppedRetained.Inc()
		}
	}
	if evicted != nil {
		evicted.reset()
		s.free = append(s.free, evicted)
	}
	s.mu.Unlock()
}

// TraceFilter selects traces in Query. Zero fields match everything.
type TraceFilter struct {
	Endpoint    string        // exact endpoint name
	ID          string        // exact request ID
	Status      int           // exact status code
	MinStatus   int           // status >= MinStatus (400 selects errors)
	MinDuration time.Duration // duration >= MinDuration
	Keep        string        // retention class
	Limit       int           // max results, newest first (0 = 100)
}

// matches reports whether t passes the filter.
func (f TraceFilter) matches(t *Trace) bool {
	if f.Endpoint != "" && t.Endpoint != f.Endpoint {
		return false
	}
	if f.ID != "" && t.ID != f.ID {
		return false
	}
	if f.Status != 0 && t.Status != f.Status {
		return false
	}
	if f.MinStatus != 0 && t.Status < f.MinStatus {
		return false
	}
	if f.MinDuration > 0 && t.Duration < f.MinDuration {
		return false
	}
	if f.Keep != "" && t.Keep != f.Keep {
		return false
	}
	return true
}

// Query returns deep copies of the matching traces, newest (highest
// sequence) first, capped at the filter's limit. Copies are taken under
// the store lock so a concurrent Deposit can never recycle a record out
// from under the caller; the store is sized for debugging, not bulk
// export, so the lock hold is bounded by capacity.
func (s *TraceStore) Query(f TraceFilter) []Trace {
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	var out []Trace
	s.mu.Lock()
	collect := func(t *Trace) {
		if f.matches(t) {
			out = append(out, t.snapshot())
		}
	}
	s.retained.each(collect)
	s.recent.each(collect)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Slowest returns deep copies of the n slowest held traces, slowest
// first — the /statsz "slowest" block and the metrics→traces pivot.
func (s *TraceStore) Slowest(n int) []Trace {
	if n <= 0 {
		return nil
	}
	var out []Trace
	s.mu.Lock()
	collect := func(t *Trace) { out = append(out, t.snapshot()) }
	s.retained.each(collect)
	s.recent.each(collect)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Seq > out[j].Seq
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TraceStoreStats is a point-in-time snapshot of the store's accounting.
// Deposited == KeptSlow + KeptError + KeptSampled + recent-ring pushes;
// the Dropped counters say how much history pressure has cost.
type TraceStoreStats struct {
	Deposited       int64 `json:"deposited"`
	KeptSlow        int64 `json:"kept_slow"`
	KeptError       int64 `json:"kept_error"`
	KeptSampled     int64 `json:"kept_sampled"`
	DroppedRecent   int64 `json:"dropped_recent"`
	DroppedRetained int64 `json:"dropped_retained"`
	RetainedEntries int   `json:"retained_entries"`
	RecentEntries   int   `json:"recent_entries"`
	Capacity        int   `json:"capacity"`
}

// Stats snapshots the store.
func (s *TraceStore) Stats() TraceStoreStats {
	st := TraceStoreStats{
		Deposited:       s.deposited.Load(),
		KeptSlow:        s.keptSlow.Load(),
		KeptError:       s.keptError.Load(),
		KeptSampled:     s.keptSampled.Load(),
		DroppedRecent:   s.droppedRecent.Load(),
		DroppedRetained: s.droppedRetained.Load(),
	}
	s.mu.Lock()
	st.RetainedEntries = s.retained.n
	st.RecentEntries = s.recent.n
	st.Capacity = len(s.retained.buf) + len(s.recent.buf)
	s.mu.Unlock()
	return st
}

// Counters exposes the store's live accounting counters for registration
// in an obs.Registry, mirroring the qcache pattern: the store keeps
// ownership, scrapes read the same atomics Stats reports.
func (s *TraceStore) Counters() (deposited, keptSlow, keptError, keptSampled, droppedRecent, droppedRetained *Counter) {
	return &s.deposited, &s.keptSlow, &s.keptError, &s.keptSampled, &s.droppedRecent, &s.droppedRetained
}

// RingSizes returns the current entry counts (for gauge funcs).
func (s *TraceStore) RingSizes() (retained, recent int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained.n, s.recent.n
}
