package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// depositOne pushes one synthetic request through the store.
func depositOne(s *TraceStore, endpoint string, status int, d time.Duration) *Trace {
	t := s.Acquire()
	t.ID = fmt.Sprintf("req-%d", status)
	t.Endpoint = endpoint
	t.Status = status
	t.Duration = d
	s.Deposit(t)
	return t
}

// fixedSlow is a SlowThreshold returning a constant for every endpoint.
func fixedSlow(d time.Duration) func(string) time.Duration {
	return func(string) time.Duration { return d }
}

// TestRetentionClasses pins the retention precedence: error beats slow
// beats sampled beats recent, and each class is queryable by keep.
func TestRetentionClasses(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{
		Capacity: 16, SampleK: 4, SlowThreshold: fixedSlow(100 * time.Millisecond),
	})
	depositOne(s, "analyze", 500, 200*time.Millisecond) // error, though also slow
	depositOne(s, "analyze", 200, 200*time.Millisecond) // slow
	depositOne(s, "analyze", 200, time.Millisecond)     // fast, seq 3
	depositOne(s, "analyze", 200, time.Millisecond)     // fast, seq 4 → sampled
	for keep, want := range map[string]int{KeepError: 1, KeepSlow: 1, KeepSampled: 1, KeepRecent: 1} {
		if got := len(s.Query(TraceFilter{Keep: keep})); got != want {
			t.Errorf("Query(keep=%s) = %d traces, want %d", keep, got, want)
		}
	}
	st := s.Stats()
	if st.Deposited != 4 || st.KeptError != 1 || st.KeptSlow != 1 || st.KeptSampled != 1 {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

// TestSamplingDeterminism pins the 1-in-K rule: with sampling alone,
// exactly every Kth deposit is retained, independent of timing.
func TestSamplingDeterminism(t *testing.T) {
	const k = 8
	s := NewTraceStore(TraceStoreOptions{Capacity: 512, SampleK: k})
	for i := 0; i < 100; i++ {
		depositOne(s, "analyze", 200, time.Millisecond)
	}
	sampled := s.Query(TraceFilter{Keep: KeepSampled, Limit: 1000})
	if len(sampled) != 100/k {
		t.Fatalf("got %d sampled traces, want %d", len(sampled), 100/k)
	}
	for _, tr := range sampled {
		if tr.Seq%k != 0 {
			t.Fatalf("sampled trace has seq %d, not a multiple of %d", tr.Seq, k)
		}
	}
	// Negative SampleK disables sampling entirely.
	off := NewTraceStore(TraceStoreOptions{Capacity: 512, SampleK: -1})
	for i := 0; i < 100; i++ {
		depositOne(off, "analyze", 200, time.Millisecond)
	}
	if got := len(off.Query(TraceFilter{Keep: KeepSampled})); got != 0 {
		t.Fatalf("sampling disabled but %d traces sampled", got)
	}
}

// TestSlowAndErrorSurvivePressure floods the store with fast successes
// and checks the slow and error traces are still retrievable — the
// tail-sampling contract.
func TestSlowAndErrorSurvivePressure(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{
		Capacity: 8, SampleK: -1, SlowThreshold: fixedSlow(100 * time.Millisecond),
	})
	slow := depositOne(s, "analyze", 200, time.Second)
	bad := depositOne(s, "sweep", 400, time.Millisecond)
	for i := 0; i < 1000; i++ {
		depositOne(s, "analyze", 200, time.Millisecond)
	}
	if got := s.Query(TraceFilter{ID: slow.ID, Keep: KeepSlow}); len(got) != 1 {
		t.Fatalf("slow trace lost under pressure: %+v", got)
	}
	if got := s.Query(TraceFilter{MinStatus: 400}); len(got) != 1 || got[0].Keep != KeepError {
		t.Fatalf("error trace lost under pressure: %+v", got)
	}
	_ = bad
	st := s.Stats()
	if st.DroppedRecent == 0 {
		t.Fatal("flood of 1000 into a recent ring of 4 must drop")
	}
	if st.DroppedRetained != 0 {
		t.Fatalf("retained ring held 2 of 4, nothing should drop: %+v", st)
	}
	if st.RecentEntries != 4 || st.RetainedEntries != 2 {
		t.Fatalf("ring occupancy mismatch: %+v", st)
	}
}

// TestRingWraparoundAccounting fills the retained ring past capacity and
// checks the oldest retained entries fall out, counted as dropped.
func TestRingWraparoundAccounting(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Capacity: 8, SampleK: -1, SlowThreshold: fixedSlow(time.Millisecond)})
	// Capacity 8 → retained ring 4. Deposit 10 slow traces.
	for i := 0; i < 10; i++ {
		depositOne(s, "analyze", 200, time.Second)
	}
	st := s.Stats()
	if st.KeptSlow != 10 || st.DroppedRetained != 6 || st.RetainedEntries != 4 {
		t.Fatalf("wraparound accounting mismatch: %+v", st)
	}
	got := s.Query(TraceFilter{})
	if len(got) != 4 {
		t.Fatalf("got %d traces, want the 4 newest", len(got))
	}
	// Newest first, and only seqs 7..10 survive.
	for i, tr := range got {
		if want := uint64(10 - i); tr.Seq != want {
			t.Fatalf("trace %d has seq %d, want %d", i, tr.Seq, want)
		}
	}
}

// TestQueryFilters exercises every filter dimension at once.
func TestQueryFilters(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Capacity: 64, SampleK: -1, SlowThreshold: fixedSlow(50 * time.Millisecond)})
	depositOne(s, "analyze", 200, time.Millisecond)
	depositOne(s, "analyze", 404, time.Millisecond)
	depositOne(s, "sweep", 200, 80*time.Millisecond)
	depositOne(s, "sweep", 500, 90*time.Millisecond)
	cases := []struct {
		name string
		f    TraceFilter
		want int
	}{
		{"all", TraceFilter{}, 4},
		{"endpoint", TraceFilter{Endpoint: "sweep"}, 2},
		{"status exact", TraceFilter{Status: 404}, 1},
		{"min status", TraceFilter{MinStatus: 400}, 2},
		{"min duration", TraceFilter{MinDuration: 60 * time.Millisecond}, 2},
		{"keep", TraceFilter{Keep: KeepError}, 2},
		{"compound", TraceFilter{Endpoint: "sweep", MinStatus: 400}, 1},
		{"limit", TraceFilter{Limit: 3}, 3},
		{"id", TraceFilter{ID: "req-404"}, 1},
		{"id miss", TraceFilter{ID: "nope"}, 0},
	}
	for _, tc := range cases {
		if got := len(s.Query(tc.f)); got != tc.want {
			t.Errorf("%s: got %d traces, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSlowestOrdering pins the Slowest contract: slowest first, capped.
func TestSlowestOrdering(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Capacity: 64, SampleK: 1})
	for _, ms := range []int{5, 50, 20, 90, 1} {
		depositOne(s, "analyze", 200, time.Duration(ms)*time.Millisecond)
	}
	got := s.Slowest(3)
	if len(got) != 3 {
		t.Fatalf("got %d traces, want 3", len(got))
	}
	for i, want := range []time.Duration{90, 50, 20} {
		if got[i].Duration != want*time.Millisecond {
			t.Fatalf("slowest[%d] = %v, want %vms", i, got[i].Duration, want)
		}
	}
}

// TestTraceEventsAndCounters checks events, counter deltas, and that
// query results are deep copies unaffected by recycling.
func TestTraceEventsAndCounters(t *testing.T) {
	var work Counter
	s := NewTraceStore(TraceStoreOptions{
		Capacity: 4, SampleK: 1,
		Counters: []CounterRef{{Name: "work_total", C: &work}},
	})
	tr := s.Acquire()
	tr.ID = "evented"
	tr.Endpoint = "analyze"
	tr.Status = 200
	work.Add(7)
	tr.Event("cache_evict", "old-key")
	tr.Since("engine", tr.Start)
	s.Deposit(tr)

	got := s.Query(TraceFilter{ID: "evented"})
	if len(got) != 1 {
		t.Fatalf("got %d traces, want 1", len(got))
	}
	g := got[0]
	if len(g.Events) != 1 || g.Events[0].Name != "cache_evict" || g.Events[0].Detail != "old-key" {
		t.Fatalf("events mismatch: %+v", g.Events)
	}
	if len(g.CounterNames) != 1 || g.CounterNames[0] != "work_total" || g.CounterDelta[0] != 7 {
		t.Fatalf("counter delta mismatch: names=%v delta=%v", g.CounterNames, g.CounterDelta)
	}
	if spans := g.Spans.All(); len(spans) != 1 || spans[0].Name != "engine" {
		t.Fatalf("spans mismatch: %+v", spans)
	}
	// Recycle the record through the free list; the snapshot must not move.
	for i := 0; i < 50; i++ {
		depositOne(s, "analyze", 200, time.Millisecond)
	}
	if g.Events[0].Name != "cache_evict" || g.CounterDelta[0] != 7 {
		t.Fatal("query snapshot mutated by record recycling")
	}
}

// TestNilTraceMethodsAreSafe pins the nil-receiver contract library
// callers rely on.
func TestNilTraceMethodsAreSafe(t *testing.T) {
	var tr *Trace
	tr.Since("x", time.Now())
	tr.Event("x", "y")
	tr.SetCache("hit")
	tr.SetError("boom")
	if tr.AllSpans() != nil {
		t.Fatal("nil trace must report nil spans")
	}
	var s *TraceStore
	_ = s // stores are never nil; only records are.
	NewTraceStore(TraceStoreOptions{}).Deposit(nil)
}

// TestAcquireDepositZeroAllocSteadyState pins the hot-path guarantee:
// once the free list is primed, Acquire+Deposit allocate nothing.
func TestAcquireDepositZeroAllocSteadyState(t *testing.T) {
	var c Counter
	s := NewTraceStore(TraceStoreOptions{
		Capacity: 4, SampleK: -1,
		SlowThreshold: fixedSlow(time.Hour),
		Counters:      []CounterRef{{Name: "x", C: &c}},
	})
	// Prime: fill both rings and the free list so records recycle.
	for i := 0; i < 16; i++ {
		depositOne(s, "analyze", 200, time.Millisecond)
	}
	avg := testing.AllocsPerRun(100, func() {
		tr := s.Acquire()
		tr.Endpoint = "analyze"
		tr.Status = 200
		tr.Duration = time.Millisecond
		tr.Since("engine", tr.Start)
		s.Deposit(tr)
	})
	if avg != 0 {
		t.Fatalf("steady-state Acquire+record+Deposit allocates %.1f/op, want 0", avg)
	}
}

// TestTraceStoreConcurrency hammers the store from writer and reader
// goroutines at once; run under -race this is the data-race pin, and the
// accounting identity must still hold afterwards.
func TestTraceStoreConcurrency(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{
		Capacity: 32, SampleK: 4, SlowThreshold: fixedSlow(10 * time.Millisecond),
	})
	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := s.Acquire()
				tr.ID = fmt.Sprintf("w%d-%d", w, i)
				tr.Endpoint = "analyze"
				tr.Status = 200
				if i%17 == 0 {
					tr.Status = 500
				}
				tr.Duration = time.Duration(i%20) * time.Millisecond
				tr.Event("tick", "")
				s.Deposit(tr)
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Query(TraceFilter{MinStatus: 400, Limit: 10})
					s.Slowest(5)
					s.Stats()
					s.RingSizes()
				}
			}
		}()
	}
	// Wait for the writers to finish, then release the readers.
	wgWriters := writers * perWriter
	for s.Stats().Deposited < int64(wgWriters) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Deposited != int64(wgWriters) {
		t.Fatalf("deposited %d, want %d", st.Deposited, wgWriters)
	}
	// Every deposit either still sits in a ring or was dropped from one.
	held := int64(st.RetainedEntries + st.RecentEntries)
	if held+st.DroppedRecent+st.DroppedRetained != st.Deposited {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}
