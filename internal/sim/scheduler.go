package sim

import (
	"container/heap"
	"math/rand"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Convenient units.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is the simulation core: a virtual clock plus an event queue.
type Scheduler struct {
	now   Time
	queue eventHeap
	seq   uint64
	rng   *rand.Rand
	steps uint64
}

// NewScheduler returns a scheduler whose randomness derives from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// RNG exposes the simulation RNG; protocols must draw all randomness from
// it to stay deterministic.
func (s *Scheduler) RNG() *rand.Rand { return s.rng }

// At schedules fn at absolute time t (clamped to now for past times).
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after now.
func (s *Scheduler) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step runs the next event; it reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	s.steps++
	e.fn()
	return true
}

// RunUntil processes events until the queue drains or virtual time would
// exceed `until`. Events scheduled at exactly `until` run. It returns the
// number of events processed.
func (s *Scheduler) RunUntil(until Time) uint64 {
	start := s.steps
	for len(s.queue) > 0 && s.queue[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return s.steps - start
}

// Steps returns the total number of events processed.
func (s *Scheduler) Steps() uint64 { return s.steps }
