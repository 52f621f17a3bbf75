package dist

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestJointParallelBitIdentical pins that the process's parallelism — the
// row split's worker count derives from GOMAXPROCS — cannot perturb a
// Reset: builds under GOMAXPROCS 1 and 4 are bit-for-bit identical at
// sizes straddling ParallelRowThreshold. Reset's folds are serial since
// the band-limited kernel (a split fold lost to fan-out cost), so this
// holds by construction; the test stays so any future fold split must keep
// every other equality pin in the repo free to ignore parallelism. The
// split that remains is the block convolution's, pinned by
// TestConvolveParallelBitIdentical below.
func TestJointParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{ParallelRowThreshold - 2, ParallelRowThreshold + 1, 200} {
		nodes := randomTriStatesCapped(rng, n, 0.3)

		prev := runtime.GOMAXPROCS(1)
		serial := NewJointCrashByz(nodes)
		runtime.GOMAXPROCS(4)
		parallel := NewJointCrashByz(nodes)
		runtime.GOMAXPROCS(prev)

		if serial.N() != parallel.N() {
			t.Fatalf("n=%d: size mismatch %d vs %d", n, serial.N(), parallel.N())
		}
		for c := 0; c <= n; c++ {
			for b := 0; c+b <= n; b++ {
				s, p := serial.PMF(c, b), parallel.PMF(c, b)
				if s != p {
					t.Fatalf("n=%d: Reset PMF(%d,%d) differs: serial %v parallel %v", n, c, b, s, p)
				}
			}
		}
	}
}

func TestConvolveParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	na, nb := 90, 80 // combined table has 171 rows, above the threshold
	a := NewJointCrashByz(randomTriStatesCapped(rng, na, 0.3))
	b := NewJointCrashByz(randomTriStatesCapped(rng, nb, 0.3))

	var serial, parallel JointCrashByz
	convolveInto(&serial, a, b, 1)
	convolveInto(&parallel, a, b, 4)

	n := na + nb
	for c := 0; c <= n; c++ {
		for bb := 0; c+bb <= n; bb++ {
			s, p := serial.PMF(c, bb), parallel.PMF(c, bb)
			if s != p {
				t.Fatalf("convolve PMF(%d,%d) differs: serial %v parallel %v", c, bb, s, p)
			}
		}
	}
}

// TestConvolveIntoMatchesAllocating pins that the workspace form reuses
// its buffer, matches the allocating wrapper bit for bit, and zeroes the
// out-of-triangle complement even when reusing a dirty larger buffer.
func TestConvolveIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := NewJointCrashByz(randomTriStatesCapped(rng, 7, 0.4))
	b := NewJointCrashByz(randomTriStatesCapped(rng, 5, 0.4))
	want := ConvolveJointCrashByz(a, b)

	var dst JointCrashByz
	// Dirty the destination with a larger build first so stale cells
	// would be visible if the Into form failed to overwrite them.
	dst.Reset(randomTriStatesCapped(rng, 20, 0.4))
	ConvolveJointCrashByzInto(&dst, a, b)

	if dst.N() != want.N() {
		t.Fatalf("N mismatch: %d vs %d", dst.N(), want.N())
	}
	n := dst.N()
	w := n + 1
	for c := 0; c <= n; c++ {
		for bb := 0; bb <= n; bb++ {
			g, wv := dst.p[c*w+bb], want.p[c*w+bb]
			if g != wv {
				t.Fatalf("cell (%d,%d): got %v want %v", c, bb, g, wv)
			}
		}
	}

	var mass KahanSum
	for _, v := range dst.p {
		mass.Add(v)
	}
	if m := mass.Sum(); m < 1-1e-12 || m > 1+1e-12 {
		t.Fatalf("convolved mass = %v, want 1", m)
	}
}

func TestMixIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	nodes := randomTriStatesCapped(rng, 9, 0.4)
	a := NewJointCrashByz(nodes)
	elevated := make([]TriState, len(nodes))
	for i, ts := range nodes {
		elevated[i] = TriState{PCrash: ts.PCrash * 3, PByz: ts.PByz * 2}
	}
	b := NewJointCrashByz(elevated)

	want, err := MixJointCrashByz(a, b, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var dst JointCrashByz
	if err := MixJointCrashByzInto(&dst, a, b, 0.9, 0.1); err != nil {
		t.Fatal(err)
	}
	if dst.N() != want.N() {
		t.Fatalf("N mismatch: %d vs %d", dst.N(), want.N())
	}
	for i := range want.p {
		if dst.p[i] != want.p[i] {
			t.Fatalf("cell %d: got %v want %v", i, dst.p[i], want.p[i])
		}
	}

	var short JointCrashByz
	short.Reset(randomTriStatesCapped(rng, 3, 0.4))
	if err := MixJointCrashByzInto(&short, a, b, 0.9, 0.1); err != nil {
		t.Fatal(err)
	}
	if short.N() != a.N() {
		t.Fatalf("Into did not resize: N=%d want %d", short.N(), a.N())
	}

	var bad JointCrashByz
	mismatch := NewJointCrashByz(nodes[:4])
	if err := MixJointCrashByzInto(&bad, a, mismatch, 0.5, 0.5); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

// TestSetParallelism pins the contract the bit-identity test above relies
// on — the worker count handed to convolveInto decides whether the rows
// fan out (else it would diff serial against serial) — and the bounds of
// the default ConvolveJointCrashByzInto passes.
func TestSetParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := NewJointCrashByz(randomTriStatesCapped(rng, 90, 0.3))
	b := NewJointCrashByz(randomTriStatesCapped(rng, 80, 0.3))
	small := NewJointCrashByz(randomTriStatesCapped(rng, 5, 0.3))
	var dst JointCrashByz
	for _, tc := range []struct {
		a, b    *JointCrashByz
		workers int
		folds   int64
	}{
		{a, b, 1, 0},         // one worker: serial
		{a, b, 4, 1},         // 171 rows across 4 workers
		{small, small, 4, 0}, // below ParallelRowThreshold: serial whatever the count
	} {
		before := parallelFolds.Load()
		convolveInto(&dst, tc.a, tc.b, tc.workers)
		if got := parallelFolds.Load() - before; got != tc.folds {
			t.Errorf("N=%d+%d with %d workers: %d parallel folds, want %d", tc.a.N(), tc.b.N(), tc.workers, got, tc.folds)
		}
	}
	if got := jointWorkers(); got < 1 || got > maxJointWorkers {
		t.Fatalf("jointWorkers() = %d, want in [1, %d]", got, maxJointWorkers)
	}
}
