package core

import (
	"math"
	"testing"

	"repro/internal/quorum"
)

func mixedE3Fleet() (Fleet, quorum.Set) {
	fleet := UniformCrashFleet(7, 0.08)
	reliable := quorum.NewSet(7)
	for i := 0; i < 3; i++ {
		fleet[i].Profile.PCrash = 0.01
		reliable.Add(i)
	}
	return fleet, reliable
}

func TestQuorumDurabilityExact(t *testing.T) {
	fleet, _ := mixedE3Fleet()
	// All four unreliable nodes: durability = 1 - 0.08^4.
	s := quorum.FromMask(7, 0b1111000) // nodes 3..6
	want := 1 - math.Pow(0.08, 4)
	if got := QuorumDurability(s, fleet); math.Abs(got-want) > 1e-12 {
		t.Errorf("durability %v, want %v", got, want)
	}
	// One reliable + three unreliable: 1 - 0.01*0.08^3.
	s2 := quorum.FromMask(7, 0b1110001) // nodes 0, 4, 5, 6
	want2 := 1 - 0.01*math.Pow(0.08, 3)
	if got := QuorumDurability(s2, fleet); math.Abs(got-want2) > 1e-12 {
		t.Errorf("aware durability %v, want %v", got, want2)
	}
}

func TestWorstAndBestQuorumDurability(t *testing.T) {
	fleet, _ := mixedE3Fleet()
	worst, err := WorstQuorumDurability(4, fleet)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestQuorumDurability(4, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !(best > worst) {
		t.Errorf("best %v must exceed worst %v", best, worst)
	}
	// Worst = all unreliable; best = 3 reliable + 1 unreliable.
	if math.Abs(worst-(1-math.Pow(0.08, 4))) > 1e-12 {
		t.Errorf("worst = %v", worst)
	}
	if math.Abs(best-(1-math.Pow(0.01, 3)*0.08)) > 1e-12 {
		t.Errorf("best = %v", best)
	}
}

func TestReliabilityAwareDurability(t *testing.T) {
	fleet, reliable := mixedE3Fleet()
	aware, err := ReliabilityAwareDurability(4, fleet, reliable, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.01*math.Pow(0.08, 3)
	if math.Abs(aware-want) > 1e-12 {
		t.Errorf("aware = %v, want %v", aware, want)
	}
	worst, _ := WorstQuorumDurability(4, fleet)
	if !(aware > worst) {
		t.Error("requiring a reliable node must beat oblivious worst case")
	}
	// Requiring two reliable nodes is stronger still.
	aware2, err := ReliabilityAwareDurability(4, fleet, reliable, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(aware2 > aware) {
		t.Errorf("minReliable=2 (%v) must beat minReliable=1 (%v)", aware2, aware)
	}
}

func TestReliabilityAwareDurabilityErrors(t *testing.T) {
	fleet, reliable := mixedE3Fleet()
	if _, err := ReliabilityAwareDurability(4, fleet, quorum.NewSet(5), 1); err == nil {
		t.Error("universe mismatch must error")
	}
	if _, err := ReliabilityAwareDurability(4, fleet, reliable, 4); err == nil {
		t.Error("minReliable > |reliable| must error")
	}
	if _, err := ReliabilityAwareDurability(1, fleet, reliable, 2); err == nil {
		t.Error("k < minReliable must error")
	}
	if _, err := ReliabilityAwareDurability(8, fleet, reliable, 1); err == nil {
		t.Error("k larger than fleet must error (not enough unreliable)")
	}
}

func TestAverageRandomQuorumDurability(t *testing.T) {
	fleet, _ := mixedE3Fleet()
	avg, err := AverageRandomQuorumDurability(4, fleet)
	if err != nil {
		t.Fatal(err)
	}
	worst, _ := WorstQuorumDurability(4, fleet)
	best, _ := BestQuorumDurability(4, fleet)
	if avg <= worst || avg >= best {
		t.Errorf("average %v must lie strictly between worst %v and best %v", avg, worst, best)
	}
	// Cross-check against direct enumeration of all C(7,4) = 35 subsets.
	probs := fleet.FailProbs()
	var sum float64
	var count int
	for mask := uint64(0); mask < 1<<7; mask++ {
		s := quorum.FromMask(7, mask)
		if s.Count() != 4 {
			continue
		}
		sum += quorum.ProbSetAllFail(s, probs)
		count++
	}
	want := 1 - sum/float64(count)
	if count != 35 {
		t.Fatalf("count=%d", count)
	}
	if math.Abs(avg-want) > 1e-12 {
		t.Errorf("avg %v, enumeration %v", avg, want)
	}
}

func TestAverageRandomQuorumDurabilityBounds(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.1)
	if _, err := AverageRandomQuorumDurability(-1, fleet); err == nil {
		t.Error("negative k must error")
	}
	if _, err := AverageRandomQuorumDurability(6, fleet); err == nil {
		t.Error("k > n must error")
	}
	// Uniform fleet: average == worst == best.
	avg, _ := AverageRandomQuorumDurability(3, fleet)
	worst, _ := WorstQuorumDurability(3, fleet)
	if math.Abs(avg-worst) > 1e-12 {
		t.Errorf("uniform fleet: avg %v != worst %v", avg, worst)
	}
}

func TestWorstQuorumDurabilityErrors(t *testing.T) {
	fleet := UniformCrashFleet(3, 0.1)
	if _, err := WorstQuorumDurability(4, fleet); err == nil {
		t.Error("k > n must error")
	}
	if _, err := BestQuorumDurability(-1, fleet); err == nil {
		t.Error("negative k must error")
	}
}
