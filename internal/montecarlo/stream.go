package montecarlo

import "math/rand"

// Stream is math/rand's default generator without the interface call per
// draw: a rand.Source64 whose outputs are exactly rand.NewSource(seed)'s,
// produced a block of streamLen at a time into a buffer the sampler
// kernel reads directly. rand.New(stream) is a drop-in *rand.Rand for
// every other consumer of the same seeded stream (the campaign's crash
// times).
//
// rand's source is an additive lagged Fibonacci register: the k-th call
// adds the slot written 273 calls earlier into the slot it last wrote 607
// calls earlier and returns the sum. Once 607 calls have passed every slot
// holds an output, so the outputs themselves obey
//
//	x[k] = x[k-607] + x[k-273]  (mod 2^64),
//
// and the 607 outputs after a block are computed in place from the block.
// Only the first block — the seeding, with its 607 cooked constants —
// comes from math/rand itself.
type Stream struct {
	buf [streamLen]uint64
	pos int // next unread index into buf; streamLen means "refill first"
}

const (
	streamLen = 607 // register length of math/rand's source
	streamTap = 273 // its feedback tap
)

// NewStream returns the stream rand.NewSource(seed) produces.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first output, as
// rand's Source.Seed does.
func (s *Stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces the buffered block with the next streamLen outputs.
// Entry k of the new block is old[k] + new[k-273], and new[k-273] is
// old[k+334] when k < 273. Ascending k reads each partner at the right
// moment: k+334 is not yet overwritten, k-273 already is.
func (s *Stream) refill() {
	b := &s.buf
	for k := 0; k < streamTap; k++ {
		b[k] += b[k+streamLen-streamTap]
	}
	for k := streamTap; k < streamLen; k++ {
		b[k] += b[k-streamTap]
	}
	s.pos = 0
}

// Uint64 returns the next output, as rand's Source64.Uint64 does.
func (s *Stream) Uint64() uint64 {
	if s.pos == streamLen {
		s.refill()
	}
	x := s.buf[s.pos]
	s.pos++
	return x
}

// Int63 returns the next output's low 63 bits, as rand's Source.Int63
// does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// resampleAt is the least 63-bit value whose float64 conversion rounds up
// to 2^63: rand.Float64 computes float64(Int63()) / 2^63 and draws again
// when that is 1, which happens exactly for values at or above it.
const resampleAt = 1<<63 - 512

// view returns the next m outputs as a view of the block, or nil when
// fewer than m are left in it. The caller advances pos past what it uses.
func (s *Stream) view(m int) []uint64 {
	if s.pos == streamLen {
		s.refill()
	}
	if m > streamLen-s.pos {
		return nil
	}
	return s.buf[s.pos : s.pos+m]
}

// read fills xs with the next len(xs) values rand.New(s).Float64 would
// scale into [0, 1): the stream's Int63s below resampleAt, in order,
// across as many blocks as it takes.
func (s *Stream) read(xs []uint64) {
	for len(xs) > 0 {
		if s.pos == streamLen {
			s.refill()
		}
		src := s.buf[s.pos:]
		if len(src) > len(xs) {
			src = src[:len(xs)]
		}
		// Store every value and advance past the kept ones only: a value
		// to skip is overwritten by the next.
		j := 0
		for _, v := range src {
			x := v & (1<<63 - 1)
			xs[j] = x
			j += int((x - resampleAt) >> 63)
		}
		s.pos += len(src)
		xs = xs[j:]
	}
}

// StreamSeed returns the representative of the seeds that select the
// same stream as seed: rand.NewSource reduces its seed modulo 2^31 − 1
// into [1, 2^31 − 2], a multiple of 2^31 − 1 becoming 89482311, so
// seeds equal under that map draw identical numbers.
func StreamSeed(seed int64) int64 {
	const m = 1<<31 - 1
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}
