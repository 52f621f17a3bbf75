package core

import (
	"math"
	"testing"

	"repro/internal/faultcurve"
)

func fp(t *testing.T, fleet Fleet, m CountModel) Fingerprint {
	t.Helper()
	f, err := FleetModelDomainsFingerprint(fleet, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFingerprintDeterministic(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.02)
	m := NewRaft(5)
	if fp(t, fleet, m) != fp(t, fleet, m) {
		t.Fatal("same query must fingerprint identically")
	}
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	a := UniformCrashFleet(4, 0.02)
	a[0].Profile = faultcurve.Crash(0.01)
	a[2].Profile = faultcurve.Profile{PCrash: 0.03, PByz: 0.001}

	b := make(Fleet, len(a))
	b[0], b[1], b[2], b[3] = a[2], a[3], a[0], a[1]

	m := NewRaft(4)
	if fp(t, a, m) != fp(t, b, m) {
		t.Fatal("fingerprint must be invariant under node permutation")
	}
	// Sanity: the Results really are permutation-invariant too.
	ra := MustAnalyze(a, m)
	rb := MustAnalyze(b, m)
	if ra != rb {
		t.Fatal("Analyze itself should be permutation-invariant")
	}
}

func TestFingerprintIgnoresNamesAndCost(t *testing.T) {
	a := UniformCrashFleet(3, 0.05)
	b := UniformCrashFleet(3, 0.05)
	for i := range b {
		b[i].Name = "renamed"
		b[i].CostPerHour = 99.0
	}
	if fp(t, a, NewRaft(3)) != fp(t, b, NewRaft(3)) {
		t.Fatal("names and cost must not affect the fingerprint")
	}
}

func TestFingerprintQuantizationFree(t *testing.T) {
	a := UniformCrashFleet(3, 0.01)
	b := UniformCrashFleet(3, 0.01)
	b[0].Profile.PCrash = math.Nextafter(0.01, 1) // 1 ulp apart
	if fp(t, a, NewRaft(3)) == fp(t, b, NewRaft(3)) {
		t.Fatal("1-ulp profile difference must change the fingerprint")
	}
}

// TestFingerprintSignOfZero: -0 passes validation (JSON spells it "-0")
// and is the same probability as 0, so it must be the same key — while
// every other single-bit change to a profile, shock or multiplier still
// yields a different one.
func TestFingerprintSignOfZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := NewRaft(4)
	fleet := func(pc, pb float64) Fleet {
		f := UniformByzFleet(4, 0.001)
		f[2].Profile = faultcurve.Profile{PCrash: pc, PByz: pb}
		return f
	}
	base := fp(t, fleet(0, 0), m)
	for _, z := range [][2]float64{{negZero, 0}, {0, negZero}, {negZero, negZero}} {
		if fp(t, fleet(z[0], z[1]), m) != base {
			t.Errorf("profile (%v, %v) fingerprints apart from (0, 0)", z[0], z[1])
		}
	}
	smallest := math.Float64frombits(1)
	for _, z := range [][2]float64{{smallest, 0}, {0, smallest}} {
		if fp(t, fleet(z[0], z[1]), m) == base {
			t.Errorf("profile (%v, %v) aliases (0, 0)", z[0], z[1])
		}
	}

	zoned := func(shock, crashMult, byzMult float64) Fingerprint {
		f, domains := zonedFleet()
		domains[0].ShockProb, domains[0].CrashMultiplier, domains[0].ByzMultiplier = shock, crashMult, byzMult
		return dfp(t, f, NewRaft(6), domains)
	}
	zbase := zoned(0, 0, 0)
	for _, z := range [][3]float64{{negZero, 0, 0}, {0, negZero, 0}, {0, 0, negZero}, {negZero, negZero, negZero}} {
		if zoned(z[0], z[1], z[2]) != zbase {
			t.Errorf("domain (shock %v, multipliers %v/%v) fingerprints apart from all-zero", z[0], z[1], z[2])
		}
	}
	for _, z := range [][3]float64{{smallest, 0, 0}, {0, smallest, 0}, {0, 0, smallest}} {
		if zoned(z[0], z[1], z[2]) == zbase {
			t.Errorf("domain (shock %v, multipliers %v/%v) aliases all-zero", z[0], z[1], z[2])
		}
	}
}

func TestFingerprintSeparatesCrashFromByz(t *testing.T) {
	crash := UniformCrashFleet(4, 0.02)
	byz := UniformByzFleet(4, 0.02)
	m := NewPBFT(1)
	if fp(t, crash, m) == fp(t, byz, m) {
		t.Fatal("crash and Byzantine mass must not be conflated")
	}
}

func TestFingerprintSeparatesModels(t *testing.T) {
	fleet := UniformCrashFleet(4, 0.02)
	raft := Raft{NNodes: 4, QPer: 3, QVC: 3}
	pbft := NewPBFT(1)
	if fp(t, fleet, raft) == fp(t, fleet, pbft) {
		t.Fatal("protocols must fingerprint differently")
	}
	raft2 := Raft{NNodes: 4, QPer: 3, QVC: 4}
	if fp(t, fleet, raft) == fp(t, fleet, raft2) {
		t.Fatal("quorum parameters must be part of the fingerprint")
	}
	pbft2 := pbft
	pbft2.QVCT = 3
	if fp(t, fleet, pbft) == fp(t, fleet, pbft2) {
		t.Fatal("QVCT must be part of the fingerprint")
	}
}

func TestFingerprintRejectsInvalidQueries(t *testing.T) {
	if _, err := FleetModelDomainsFingerprint(UniformCrashFleet(3, 0.01), NewRaft(5), nil); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
	bad := UniformCrashFleet(3, 0.01)
	bad[1].Profile.PCrash = 1.5
	if _, err := FleetModelDomainsFingerprint(bad, NewRaft(3), nil); err == nil {
		t.Fatal("invalid profile must be rejected")
	}
}

func TestFingerprintStringIsHex(t *testing.T) {
	s := fp(t, UniformCrashFleet(3, 0.01), NewRaft(3)).String()
	if len(s) != 64 {
		t.Fatalf("hex fingerprint length = %d, want 64", len(s))
	}
}

func dfp(t *testing.T, fleet Fleet, m CountModel, domains DomainSet) Fingerprint {
	t.Helper()
	f, err := FleetModelDomainsFingerprint(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// zonedFleet returns a 6-node fleet split across two zones plus its layout.
func zonedFleet() (Fleet, DomainSet) {
	fleet := UniformCrashFleet(6, 0.02)
	for i := range fleet {
		fleet[i].Domain = []string{"za", "zb"}[i%2]
	}
	domains := DomainSet{
		{Name: "za", ShockProb: 1e-4, CrashMultiplier: 50, ByzMultiplier: 1},
		{Name: "zb", ShockProb: 2e-4, CrashMultiplier: 40, ByzMultiplier: 1},
	}
	return fleet, domains
}

func TestFingerprintDomainLayoutDistinguished(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	base := dfp(t, fleet, m, domains)

	// Any domain layout must differ from the domain-free query.
	if base == fp(t, UniformCrashFleet(6, 0.02), m) {
		t.Fatal("domained query must not alias the domain-free query")
	}

	// Moving one node to the other zone changes the key.
	moved := append(Fleet{}, fleet...)
	moved[0].Domain = "zb"
	if dfp(t, moved, m, domains) == base {
		t.Fatal("changing a node's domain membership must change the fingerprint")
	}

	// Changing one shock probability changes the key.
	hotter := append(DomainSet{}, domains...)
	hotter[0].ShockProb = 2e-4
	if dfp(t, fleet, m, hotter) == base {
		t.Fatal("changing a shock probability must change the fingerprint")
	}

	// Changing a multiplier changes the key.
	harder := append(DomainSet{}, domains...)
	harder[1].CrashMultiplier = 41
	if dfp(t, fleet, m, harder) == base {
		t.Fatal("changing a shock multiplier must change the fingerprint")
	}
}

func TestFingerprintDomainCanonicalization(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	base := dfp(t, fleet, m, domains)

	// Renaming the domains (consistently) cannot change the Result, so it
	// must not change the key.
	renamedFleet := append(Fleet{}, fleet...)
	for i := range renamedFleet {
		renamedFleet[i].Domain = map[string]string{"za": "rack-1", "zb": "rack-2"}[renamedFleet[i].Domain]
	}
	renamedDomains := append(DomainSet{}, domains...)
	renamedDomains[0].Name = "rack-1"
	renamedDomains[1].Name = "rack-2"
	if dfp(t, renamedFleet, m, renamedDomains) != base {
		t.Fatal("renaming domains must not change the fingerprint")
	}

	// Reordering the DomainSet cannot change the Result either.
	swapped := DomainSet{domains[1], domains[0]}
	if dfp(t, fleet, m, swapped) != base {
		t.Fatal("reordering the DomainSet must not change the fingerprint")
	}

	// Permuting nodes (memberships travel with them) keeps the key.
	permuted := Fleet{fleet[4], fleet[2], fleet[0], fleet[5], fleet[3], fleet[1]}
	if dfp(t, permuted, m, domains) != base {
		t.Fatal("node permutation must not change the fingerprint")
	}

	// Memberless domains are dropped by canonicalization: same Result,
	// same key as not declaring them at all.
	padded := append(DomainSet{}, domains...)
	padded = append(padded, faultcurve.Domain{Name: "unused", ShockProb: 0.5, CrashMultiplier: 9, ByzMultiplier: 9})
	if dfp(t, fleet, m, padded) != base {
		t.Fatal("memberless domains must not fragment the cache")
	}

	// No populated domains at all: aliases the domain-free key (equal
	// Results, so sharing the cache line is correct).
	plain := UniformCrashFleet(6, 0.02)
	if dfp(t, plain, m, DomainSet{domains[0]}) != fp(t, plain, m) {
		t.Fatal("a query with no populated domains should alias the domain-free key")
	}
}

func TestFingerprintDomainRejectsInvalid(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	bad := append(DomainSet{}, domains...)
	bad[0].ShockProb = -1
	if _, err := FleetModelDomainsFingerprint(fleet, m, bad); err == nil {
		t.Fatal("invalid shock probability must be rejected")
	}
	orphan := append(Fleet{}, fleet...)
	orphan[2].Domain = "nowhere"
	if _, err := FleetModelDomainsFingerprint(orphan, m, domains); err == nil {
		t.Fatal("unresolved membership must be rejected")
	}
}
