package montecarlo

import (
	"math"
	"testing"

	"repro/internal/faultcurve"
)

// noDomains returns the membership of n independent nodes.
func noDomains(n int) []int {
	member := make([]int, n)
	for i := range member {
		member[i] = -1
	}
	return member
}

func TestImportanceRecoversDeepTail(t *testing.T) {
	// P[all 5 nodes fail] at p=1% is 1e-10 — invisible to naive MC but
	// easy under a 0.5 tilt.
	profiles := faultcurve.UniformProfiles(5, faultcurve.Crash(0.01))
	allFail := func(c, b int) bool { return c+b == 5 }
	est, err := RunImportanceTri(profiles, noDomains(5), nil, TiltForCount(profiles, 5, false), allFail, 200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.P-1e-10) > 2e-12 {
		t.Errorf("estimate %v, want 1e-10", est)
	}
	if est.StdErr <= 0 || est.StdErr > 1e-11 {
		t.Errorf("stderr %v implausible", est.StdErr)
	}
	// Naive sampling finds nothing at this budget.
	naive, err := RunImportanceTri(profiles, noDomains(5), nil, TriTilt{Boost: 1}, allFail, 200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if naive.P != 0 {
		t.Logf("naive unexpectedly saw the event: %v", naive.P)
	}
}

func TestImportanceMatchesExactModerateTail(t *testing.T) {
	// P[>= 4 of 9 fail] at p=8%: exact binomial tail.
	profiles := faultcurve.UniformProfiles(9, faultcurve.Crash(0.08))
	pred := func(c, b int) bool { return c+b >= 4 }
	est, err := RunImportanceTri(profiles, noDomains(9), nil, TriTilt{Boost: 5}, pred, 300_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	{
		// Exact via the dist package's tail (indirectly: sum binomials).
		p := 0.08
		for k := 4; k <= 9; k++ {
			want += choose(9, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(9-k))
		}
	}
	if math.Abs(est.P-want) > 4*est.StdErr+1e-6 {
		t.Errorf("estimate %v vs exact %v", est, want)
	}
}

func choose(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

func TestImportanceHeterogeneousTargetedLoss(t *testing.T) {
	// E5's targeted-loss event on a heterogeneous fleet: the specific
	// nodes {0,1,2} all fail, p = (0.1, 0.05, 0.02) -> 1e-4. The event
	// names nodes, not counts, so it reads the per-node outcomes and
	// weights each hit by its likelihood ratio.
	profiles := []faultcurve.Profile{
		faultcurve.Crash(0.1), faultcurve.Crash(0.05), faultcurve.Crash(0.02),
		faultcurve.Crash(0.3), faultcurve.Crash(0.3),
	}
	var d Draws
	if err := d.Reset(profiles, noDomains(5), nil, TriTilt{Boost: 10}); err != nil {
		t.Fatal(err)
	}
	s := NewStream(3)
	const samples = 300_000
	var sumW, sumW2 float64
	for k := 0; k < samples; k++ {
		d.Next(s)
		hit := true
		for i := 0; i < 3; i++ {
			if c, _ := d.Node(i); !c {
				hit = false
			}
		}
		if hit {
			w := math.Exp(d.LogW())
			sumW += w
			sumW2 += w * w
		}
	}
	p := sumW / samples
	stdErr := math.Sqrt((sumW2/samples - p*p) / samples)
	want := 0.1 * 0.05 * 0.02
	if stdErr <= 0 || math.Abs(p-want) > 4*stdErr+1e-7 {
		t.Errorf("estimate %v ± %v vs exact %v", p, stdErr, want)
	}
}

func TestImportanceTrivialPredicate(t *testing.T) {
	// pred == true always: estimate must be ~1 (weights average to 1).
	profiles := faultcurve.UniformProfiles(4, faultcurve.Crash(0.2))
	est, err := RunImportanceTri(profiles, noDomains(4), nil, TriTilt{Boost: 2.5}, func(int, int) bool { return true }, 200_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.P-1) > 0.02 {
		t.Errorf("total mass %v, want ~1", est.P)
	}
	if est.EffectiveSamples <= 0 || est.EffectiveSamples > float64(est.Samples) {
		t.Errorf("ESS %v out of range", est.EffectiveSamples)
	}
	if est.String() == "" {
		t.Error("empty String")
	}
}
