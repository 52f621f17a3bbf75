package qcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mustDo fills key through Do, the one way a value enters a cache, or
// reads it back if it is cached already.
func mustDo[V comparable](t *testing.T, c *Cache[V], key string, v V) {
	t.Helper()
	got, _, err := c.Do(key, func() (V, error) { return v, nil })
	if err != nil || got != v {
		t.Fatalf("Do(%q) = %v, %v; want %v", key, got, err, v)
	}
}

func TestDoMemoizes(t *testing.T) {
	c := New[int](8, 2)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 5; i++ {
		if v, _, err := c.Do("k", compute); err != nil || v != 42 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits", st)
	}
}

func TestEvictionOrderLRU(t *testing.T) {
	// Single shard so the eviction order is fully deterministic.
	c := New[int](3, 1)
	mustDo(t, c, "a", 1)
	mustDo(t, c, "b", 2)
	mustDo(t, c, "c", 3)
	// Touch "a" so "b" is now the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	mustDo(t, c, "d", 4) // evicts "b"
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", st)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New[int](10, 4)
	for i := 0; i < 1000; i++ {
		mustDo(t, c, fmt.Sprintf("key-%d", i), i)
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if c.Len() != st.Entries {
		t.Fatalf("Len %d != stats entries %d", c.Len(), st.Entries)
	}
}

func TestShardDistribution(t *testing.T) {
	const shards, keys = 8, 4096
	c := New[int](keys*2, shards)
	counts := make(map[*shard[int]]int, shards)
	for i := 0; i < keys; i++ {
		counts[c.shardFor(fmt.Sprintf("fingerprint-%d", i))]++
	}
	if len(counts) != shards {
		t.Fatalf("only %d of %d shards used", len(counts), shards)
	}
	// Every shard should see a reasonable share: within 3x of fair.
	fair := keys / shards
	for s, n := range counts {
		if n < fair/3 || n > fair*3 {
			t.Fatalf("shard %p got %d keys, fair share is %d", s, n, fair)
		}
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New[int](8, 4)
	const K = 64
	var computes atomic.Int64
	release := make(chan struct{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do("same-query", func() (int, error) {
				computes.Add(1)
				<-release // hold the flight open until all K have queued
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	// Wait until the K-1 waiters are coalesced onto the single flight.
	for c.Stats().Coalesced != K-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical queries ran compute %d times, want exactly 1", K, got)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("caller %d got %d, want 7", i, v)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != K-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced", st, K-1)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](8, 1)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, _, err := c.Do("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Do("k", fail); !errors.Is(err, boom) {
		t.Fatalf("second err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("failed compute must rerun, got %d calls", calls)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result must not be cached")
	}
	mustDo(t, c, "k", 5) // recovers once compute succeeds
}

// TestPutAndGet: a value filled through Do reads back through Get, and a
// later Do for the key answers from the cache without computing or adding
// an entry: nothing overwrites a cached key.
func TestPutAndGet(t *testing.T) {
	c := New[int](4, 2)
	mustDo(t, c, "k", 1)
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	v, cached, err := c.Do("k", func() (int, error) { return 2, nil })
	if err != nil || !cached || v != 1 {
		t.Fatalf("Do on a cached key = %d, cached %v, %v; want the cached 1", v, cached, err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// Hammer a small cache from many goroutines; -race is the assertion.
	c := New[int](32, 4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%100)
				switch i % 3 {
				case 0:
					mustDoVal(c, k, i)
				case 1:
					c.Get(k)
				case 2:
					_, _, _ = c.Do(k, func() (int, error) { return 0, errors.New("not cached") })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("capacity breached: %+v", st)
	}
}

func mustDoVal(c *Cache[int], key string, v int) {
	_, _, _ = c.Do(key, func() (int, error) { return v, nil })
}

func TestNewClampsArguments(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {-5, 100}, {4, 64}} {
		c := New[int](tc[0], tc[1])
		mustDoVal(c, "k", 1)
		if v, ok := c.Get("k"); !ok || v != 1 {
			t.Fatalf("New(%d,%d) unusable", tc[0], tc[1])
		}
	}
}

func TestPanickingComputeResolvesFlight(t *testing.T) {
	c := New[int](8, 1)
	boom := func() (int, error) { panic("engine bug") }

	// The initiator gets an error, not a hang or a propagated panic.
	if _, _, err := c.Do("k", boom); err == nil {
		t.Fatal("panicking compute must surface an error")
	}
	// Waiters coalesced onto a panicking flight are released with the error.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do("k2", func() (int, error) { <-release; panic("late bug") })
		if err == nil {
			t.Error("initiator must see the panic error")
		}
	}()
	for c.Stats().Misses != 2 {
		runtime.Gosched()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do("k2", func() (int, error) { return 1, nil })
		if err == nil {
			t.Error("coalesced waiter must see the panic error")
		}
	}()
	for c.Stats().Coalesced != 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	// The key is not bricked: a later Do computes fresh.
	v, _, err := c.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("key bricked after panic: %d, %v", v, err)
	}
}

// TestPutDuringFlightKeepsOneEntry: a second Do landing while a flight for
// the same key computes waits for that flight instead of inserting, so the
// key has one list element (an orphaned one would corrupt Len and let a
// later eviction unmap the live entry).
func TestPutDuringFlightKeepsOneEntry(t *testing.T) {
	c := New[int](3, 1)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do("k", func() (int, error) { <-release; return 1, nil })
	}()
	for c.Stats().Misses != 1 {
		runtime.Gosched()
	}
	landed := make(chan int)
	go func() {
		v, _, _ := c.Do("k", func() (int, error) { return 2, nil }) // lands mid-flight
		landed <- v
	}()
	for c.Stats().Coalesced != 1 {
		runtime.Gosched()
	}
	close(release)
	<-done
	if v := <-landed; v != 1 {
		t.Fatalf("mid-flight Do = %d, want the flight's value 1", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (duplicate element orphaned)", c.Len())
	}
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("Get = %d, %v; want the flight's value 1", v, ok)
	}
	// Fill the single shard past capacity; the entry count must stay
	// consistent and "k"'s mapping must survive exactly as the LRU dictates.
	mustDo(t, c, "a", 10)
	mustDo(t, c, "b", 11)
	mustDo(t, c, "d", 12) // evicts "k" (the true LRU), not a phantom
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction churn, want 3", c.Len())
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("k should have been evicted as LRU")
	}
}

// eventLog is a test EventRecorder.
type eventLog struct {
	mu     sync.Mutex
	events [][2]string
}

func (l *eventLog) Event(name, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, [2]string{name, detail})
}

func (l *eventLog) snapshot() [][2]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][2]string(nil), l.events...)
}

// TestDoEventsEviction checks the flight-recorder hook: filling past
// capacity reports each evicted key to the inserting caller's recorder.
func TestDoEventsEviction(t *testing.T) {
	c := New[int](2, 1)
	mustDo(t, c, "a", 1)
	mustDo(t, c, "b", 2)
	var ev eventLog
	if _, _, err := c.DoEvents("c", &ev, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	got := ev.snapshot()
	if len(got) != 1 || got[0] != [2]string{"cache_evict", "a"} {
		t.Fatalf("events = %v, want one cache_evict of the LRU key a", got)
	}
	// A hit emits no events.
	ev = eventLog{}
	if _, _, err := c.DoEvents("c", &ev, func() (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if len(ev.snapshot()) != 0 {
		t.Fatalf("hit emitted events: %v", ev.snapshot())
	}
}

// TestDoEventsCoalesced checks joiners of an in-flight computation get a
// cache_coalesced event while the computing caller gets none.
func TestDoEventsCoalesced(t *testing.T) {
	c := New[int](8, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var leader eventLog
	go func() {
		c.DoEvents("k", &leader, func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	var joiner eventLog
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, cached, err := c.DoEvents("k", &joiner, func() (int, error) { return 0, nil })
		if err != nil || v != 7 || cached {
			t.Errorf("joiner got %d, cached=%v, err=%v; want 7, false, nil", v, cached, err)
		}
	}()
	// Wait until the joiner has latched onto the flight, then release.
	for {
		if ev := joiner.snapshot(); len(ev) == 1 && ev[0][0] == "cache_coalesced" && ev[0][1] == "k" {
			break
		}
		runtime.Gosched()
	}
	close(release)
	<-done
	if ev := leader.snapshot(); len(ev) != 0 {
		t.Fatalf("leader emitted events: %v", ev)
	}
}

// TestDoEventsNilRecorder pins that a nil recorder is fully inert.
func TestDoEventsNilRecorder(t *testing.T) {
	c := New[int](1, 1)
	if _, _, err := c.DoEvents("a", nil, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DoEvents("b", nil, func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	mustDo(t, c, "c", 3) // Do delegates to DoEvents(nil)
}
