package markov

import (
	"math"
	"testing"

	"repro/internal/core"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestNewBirthDeathValidation(t *testing.T) {
	if _, err := NewBirthDeath(0, 1, 1, 1); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := NewBirthDeath(3, 0, 1, 1); err == nil {
		t.Error("lambda=0 must be rejected")
	}
	if _, err := NewBirthDeath(3, 1, -1, 1); err == nil {
		t.Error("negative mu must be rejected")
	}
	m, err := NewBirthDeath(3, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Repairers != 1 {
		t.Errorf("repairers defaulted to %d, want 1", m.Repairers)
	}
}

func TestMTTFSingleNode(t *testing.T) {
	m, _ := NewBirthDeath(1, 0.001, 0, 1)
	// With no repair, mean time to 1 failure == MTTF = 1/(N·λ).
	h, err := m.MeanTimeToAbsorption(1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(h, 1000, 1e-9) {
		t.Errorf("hitting time %v, want 1000", h)
	}
}

func TestMeanTimeNoRepairClosedForm(t *testing.T) {
	// Without repair, expected time to absorb at k failures of n nodes is
	// sum_{i=0}^{k-1} 1/((n-i) lambda) (a pure death chain).
	n, lambda := 5, 0.01
	m, _ := NewBirthDeath(n, lambda, 0, 1)
	for k := 1; k <= n; k++ {
		var want float64
		for i := 0; i < k; i++ {
			want += 1 / (float64(n-i) * lambda)
		}
		got, err := m.MeanTimeToAbsorption(k)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, want, 1e-9) {
			t.Errorf("k=%d: %v want %v", k, got, want)
		}
	}
}

func TestMeanTimeTwoNodeRepairClosedForm(t *testing.T) {
	// Classic RAID-1 result: mean time to losing both of two replicas with
	// repair is (3λ + μ) / (2λ²).
	lambda, mu := 0.001, 0.1
	m, _ := NewBirthDeath(2, lambda, mu, 1)
	got, err := m.MeanTimeToAbsorption(2)
	if err != nil {
		t.Fatal(err)
	}
	want := (3*lambda + mu) / (2 * lambda * lambda)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("MTTDL=%v, want %v", got, want)
	}
}

func TestRepairExtendsLifetime(t *testing.T) {
	noRepair, _ := NewBirthDeath(5, 0.001, 0, 1)
	withRepair, _ := NewBirthDeath(5, 0.001, 0.5, 1)
	moreRepair, _ := NewBirthDeath(5, 0.001, 0.5, 3)
	a, _ := noRepair.MeanTimeToAbsorption(3)
	b, _ := withRepair.MeanTimeToAbsorption(3)
	c, _ := moreRepair.MeanTimeToAbsorption(3)
	if !(b > 10*a) {
		t.Errorf("repair must dramatically extend lifetime: %v vs %v", b, a)
	}
	if !(c > b) {
		t.Errorf("more repairers must extend lifetime: %v vs %v", c, b)
	}
}

func TestMeanTimeToAbsorptionBounds(t *testing.T) {
	m, _ := NewBirthDeath(3, 0.01, 0.1, 1)
	if _, err := m.MeanTimeToAbsorption(0); err == nil {
		t.Error("absorb=0 must error")
	}
	if _, err := m.MeanTimeToAbsorption(4); err == nil {
		t.Error("absorb>n must error")
	}
}

func TestSteadyStateSumsToOne(t *testing.T) {
	m, _ := NewBirthDeath(6, 0.002, 0.05, 2)
	pi, err := m.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range pi {
		total += p
	}
	if !almostEq(total, 1, 1e-12) {
		t.Errorf("steady state sums to %v", total)
	}
	// Mass concentrates near 0 failures when mu >> lambda.
	if pi[0] < 0.7 {
		t.Errorf("pi[0]=%v, expected dominant", pi[0])
	}
	for k := 1; k < len(pi); k++ {
		if pi[k] > pi[k-1] {
			t.Errorf("pi must decrease when mu >> lambda: pi[%d]=%v > pi[%d]=%v", k, pi[k], k-1, pi[k-1])
		}
	}
}

func TestSteadyStateDetailedBalance(t *testing.T) {
	m, _ := NewBirthDeath(4, 0.01, 0.2, 2)
	pi, _ := m.SteadyState()
	for k := 0; k < 4; k++ {
		lhs := pi[k] * m.failRate(k)
		rhs := pi[k+1] * m.repairRate(k+1)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Errorf("detailed balance broken at %d: %v vs %v", k, lhs, rhs)
		}
	}
}

func TestSteadyStateRequiresRepair(t *testing.T) {
	m, _ := NewBirthDeath(3, 0.01, 0, 1)
	if _, err := m.SteadyState(); err == nil {
		t.Error("mu=0 must reject steady state")
	}
}

func TestAvailability(t *testing.T) {
	m, _ := NewBirthDeath(5, 0.001, 0.1, 1)
	u, err := m.UnavailabilityBeyond(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Availability(3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(u+a, 1, 1e-12) {
		t.Errorf("u+a = %v", u+a)
	}
	full, _ := m.UnavailabilityBeyond(0)
	if !almostEq(full, 1, 1e-12) {
		t.Errorf("UnavailabilityBeyond(0) = %v, want 1", full)
	}
	neg, _ := m.UnavailabilityBeyond(-2)
	if !almostEq(neg, 1, 1e-12) {
		t.Errorf("negative k treated as 0, got %v", neg)
	}
}

func TestNinesFromMTTDL(t *testing.T) {
	// MTTDL = 100x window: P(survive) = exp(-0.01) ~ 0.99 -> ~2 nines.
	n := NinesFromMTTDL(100, 1)
	if n < 1.9 || n > 2.1 {
		t.Errorf("nines = %v, want ~2", n)
	}
	if NinesFromMTTDL(0, 1) != 0 {
		t.Error("MTTDL=0 must give 0 nines")
	}
	if NinesFromMTTDL(-5, 1) != 0 {
		t.Error("negative MTTDL must give 0 nines")
	}
}

func TestLivenessAbsorb(t *testing.T) {
	if got := LivenessAbsorb(core.NewRaft(3)); got != 2 {
		t.Errorf("N=3 absorb=%d, want 2 (two failures kill the majority)", got)
	}
	if got := LivenessAbsorb(core.NewRaft(9)); got != 5 {
		t.Errorf("N=9 absorb=%d, want 5", got)
	}
	flex := core.Raft{NNodes: 5, QPer: 4, QVC: 3}
	if got := LivenessAbsorb(flex); got != 2 {
		t.Errorf("flexible absorb=%d, want 2 (Qper=4 dominates)", got)
	}
}

func TestMeanTimeToUnavailabilityOrdering(t *testing.T) {
	// Bigger clusters survive longer with the same per-node rates.
	lambda, mu := 0.001, 0.05
	t3, err := MeanTimeToUnavailability(core.NewRaft(3), lambda, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := MeanTimeToUnavailability(core.NewRaft(5), lambda, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(t5 > t3) {
		t.Errorf("5-node MTTU %v should exceed 3-node %v", t5, t3)
	}
	// Degenerate model that is never live.
	if _, err := MeanTimeToUnavailability(core.Raft{NNodes: 3, QPer: 4, QVC: 4}, lambda, mu, 1); err == nil {
		t.Error("never-live model must error")
	}
}

func TestMeanTimeToDataLoss(t *testing.T) {
	lambda, mu := 0.001, 0.1
	got, err := MeanTimeToDataLoss(2, lambda, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (3*lambda + mu) / (2 * lambda * lambda)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("MTTDL=%v, want RAID-1 closed form %v", got, want)
	}
	// Larger quorums last longer.
	bigger, _ := MeanTimeToDataLoss(3, lambda, mu, 1)
	if !(bigger > got) {
		t.Errorf("3-replica MTTDL %v should exceed 2-replica %v", bigger, got)
	}
	if _, err := MeanTimeToDataLoss(0, lambda, mu, 1); err == nil {
		t.Error("k=0 must error")
	}
}
