package montecarlo

import (
	"math"
	"math/rand"
	"testing"
)

// pinSeeds are the seeds the stream pins run on: math/rand's reduction
// modulo 2^31 − 1 at its edges (0 and 2^31 − 1 both become 89482311),
// negative seeds, and the int64 extremes.
var pinSeeds = []int64{0, 1, -1, 1<<31 - 1, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}

// pinDraws spans five blocks: the first, read from math/rand, and four
// computed by the output recurrence.
const pinDraws = 5 * streamLen

// TestStreamMatchesRandSource pins Stream to rand.NewSource output for
// output, with ==, on both of its methods, and through a reseed.
func TestStreamMatchesRandSource(t *testing.T) {
	for _, seed := range pinSeeds {
		s := NewStream(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < pinDraws; k++ {
			if k%3 == 0 {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d output %d: Int63 %d, rand.NewSource %d", seed, k, got, want)
				}
			} else if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d output %d: Uint64 %d, rand.NewSource %d", seed, k, got, want)
			}
		}
		s.Seed(seed)
		ref.Seed(seed)
		for k := 0; k < streamLen+1; k++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d output %d after Seed: %d, rand.NewSource %d", seed, k, got, want)
			}
		}
	}
}

// TestStreamDrivesRandLikeRandSource pins rand.New(stream) to
// rand.New(rand.NewSource(seed)) on interleaved calls of the kinds the
// campaign's trials make, with ==.
func TestStreamDrivesRandLikeRandSource(t *testing.T) {
	for _, seed := range pinSeeds {
		got, want := rand.New(NewStream(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < pinDraws; k++ {
			var a, b float64
			switch k % 5 {
			case 0:
				a, b = got.Float64(), want.Float64()
			case 1:
				a, b = float64(got.Int63n(5_000_000_000)), float64(want.Int63n(5_000_000_000))
			case 2:
				a, b = got.ExpFloat64(), want.ExpFloat64()
			case 3:
				a, b = float64(got.Intn(7)), float64(want.Intn(7))
			default:
				a, b = float64(got.Uint64()), float64(want.Uint64())
			}
			if a != b {
				t.Fatalf("seed %d call %d: rand.New(stream) %v, rand.New(rand.NewSource) %v", seed, k, a, b)
			}
		}
	}
}

func TestStreamSeed(t *testing.T) {
	for _, seed := range append(pinSeeds, 2, -2, 1<<31-2, 1<<40+3, -(1 << 40)) {
		r := StreamSeed(seed)
		if r < 1 || r >= 1<<31-1 {
			t.Errorf("StreamSeed(%d) = %d, outside [1, 2^31 − 2]", seed, r)
		}
		if a, b := NewStream(seed), NewStream(r); *a != *b {
			t.Errorf("seed %d and its representative %d select different streams", seed, r)
		}
	}
}

// TestResampleAt pins the constant to rand.Float64's rounding: the least
// 63-bit value that converts to 1.
func TestResampleAt(t *testing.T) {
	if float64(int64(resampleAt))/(1<<63) != 1 || float64(int64(resampleAt-1))/(1<<63) >= 1 {
		t.Fatalf("resampleAt %d is not the least Int63 that rand.Float64 rounds to 1", int64(resampleAt))
	}
}

// planted are raw outputs written over a stream's first block: values
// rand.Float64 skips (its Int63 at or above resampleAt, with and without
// the bit Int63 masks off), the largest value it keeps, and a tiny value
// behind the masked bit.
var planted = []struct {
	at  int
	raw uint64
}{
	{3, math.MaxUint64},
	{50, 1<<63 - 513}, // kept: rounds down to 1 − 2^−53
	{100, 1<<63 - 512},
	{101, 1<<64 - 512},
	{102, 1<<63 | 5},
	{600, math.MaxUint64}, // in the sample that straddles two blocks at N = 25
	{606, 1<<63 - 1},
}

func plantedStream(seed int64) *Stream {
	s := NewStream(seed)
	for _, p := range planted {
		s.buf[p.at] = p.raw
	}
	return s
}

// TestStreamPlantedSkips checks rand.New(stream).Float64 skips exactly
// the planted values rand.Float64 must and scales the kept ones: against
// the unplanted stream, whose first block agrees everywhere else, it
// draws the same numbers once the planted positions are dropped from
// both.
func TestStreamPlantedSkips(t *testing.T) {
	got, want := rand.New(plantedStream(7)), rand.New(NewStream(7))
	next := 0
	for k := 0; k < streamLen; k++ {
		if next < len(planted) && planted[next].at == k {
			raw := planted[next].raw
			next++
			want.Int63()
			if x := int64(raw & (1<<63 - 1)); x < resampleAt {
				if u := got.Float64(); u != float64(x)/(1<<63) {
					t.Fatalf("output %d: kept planted value drawn as %v, want %v", k, u, float64(x)/(1<<63))
				}
			}
			continue
		}
		if a, b := got.Float64(), want.Float64(); a != b {
			t.Fatalf("output %d: planted stream draws %v, unplanted %v", k, a, b)
		}
	}
}

// TestKernelSkipsWhatFloat64Skips runs the kernel and the historical
// per-draw loop — whose rand.Float64 does the skipping — on the same
// planted stream, with and without domains: the values to skip fall in a
// sample read in place, twice in one sample, and in the sample stitched
// across two blocks.
func TestKernelSkipsWhatFloat64Skips(t *testing.T) {
	for _, withDomains := range []bool{false, true} {
		profiles, member, domains := servedFleet(withDomains)
		tilt := TiltForCount(profiles, 13, withDomains)
		pred := func(c, b int) bool { return c+b >= 9 }
		for seed := int64(1); seed <= 3; seed++ {
			var d Draws
			if err := d.Reset(profiles, member, domains, tilt); err != nil {
				t.Fatal(err)
			}
			s := plantedStream(seed)
			src := *s
			got := d.estimate(2000, s, pred)
			want, err := refImportanceTriOn(profiles, member, domains, tilt, pred, 2000, rand.New(&src))
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimate(got, want) {
				t.Errorf("domains=%v seed %d: kernel %+v != oracle %+v on the planted stream", withDomains, seed, got, want)
			}
			if got.P <= 0 {
				t.Errorf("domains=%v seed %d: event never hit", withDomains, seed)
			}
		}
	}
}

// TestKernelMatchesOracleHitAlwaysOrNever pins the weight-on-hit split at
// its two ends: every sample priced, and none.
func TestKernelMatchesOracleHitAlwaysOrNever(t *testing.T) {
	preds := map[string]TriPred{
		"always": func(int, int) bool { return true },
		"never":  func(int, int) bool { return false },
	}
	for _, withDomains := range []bool{false, true} {
		profiles, member, domains := servedFleet(withDomains)
		tilt := TiltForCount(profiles, 13, withDomains)
		for name, pred := range preds {
			for seed := int64(1); seed <= 3; seed++ {
				got, err := RunImportanceTri(profiles, member, domains, tilt, pred, 5000, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := refImportanceTri(profiles, member, domains, tilt, pred, 5000, seed)
				if !sameEstimate(got, want) {
					t.Errorf("%s, domains=%v seed %d: kernel %+v != oracle %+v", name, withDomains, seed, got, want)
				}
			}
		}
	}
	// A fleet whose every node is its own edge case, hit always.
	edge, always := edgeProfiles, preds["always"]
	for seed := int64(1); seed <= 3; seed++ {
		got, _ := RunImportanceTri(edge, noDomains(len(edge)), nil, TriTilt{Boost: 7}, always, 3000, seed)
		want, _ := refImportanceTri(edge, noDomains(len(edge)), nil, TriTilt{Boost: 7}, always, 3000, seed)
		if !sameEstimate(got, want) {
			t.Errorf("edge fleet seed %d: kernel %+v != oracle %+v", seed, got, want)
		}
	}
}
