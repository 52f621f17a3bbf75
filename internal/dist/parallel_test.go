package dist

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestJointParallelBitIdentical pins that the process's parallelism cannot
// perturb a Reset: builds under GOMAXPROCS 1 and 4 are bit-for-bit
// identical. Every dist kernel runs on its caller's goroutine (DESIGN.md
// "Engine concurrency"), so this holds by construction; the test stays so
// any future split must keep every other equality pin in the repo free to
// ignore parallelism.
func TestJointParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{126, 129, 200} {
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
	// The whole buffer, cells past the triangle included.
	if len(dst.t.p) != len(want.t.p) {
		t.Fatalf("buffer of %d cells, want %d", len(dst.t.p), len(want.t.p))
	}
	for i, wv := range want.t.p {
		if g := dst.t.p[i]; g != wv {
			t.Fatalf("cell %d: got %v want %v", i, g, wv)
		}
	}

	var mass KahanSum
	for _, v := range dst.t.p {
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
	for i := range want.t.p {
		if dst.t.p[i] != want.t.p[i] {
			t.Fatalf("cell %d: got %v want %v", i, dst.t.p[i], want.t.p[i])
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
