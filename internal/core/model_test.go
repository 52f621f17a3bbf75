package core

import "testing"

func TestRaftTheorem32Predicates(t *testing.T) {
	r := NewRaft(5) // Qper = Qvc = 3
	if !r.QuorumsSafe() {
		t.Error("majority Raft must satisfy the safety conditions")
	}
	// Safety is configuration-independent for crash faults.
	for c := 0; c <= 5; c++ {
		if !r.Safe(c, 0) {
			t.Errorf("Safe(%d, 0) = false", c)
		}
	}
	// A Byzantine node voids CFT safety.
	if r.Safe(0, 1) {
		t.Error("Raft must not be safe with a Byzantine node")
	}
	// Liveness: correct >= 3.
	for c := 0; c <= 5; c++ {
		want := 5-c >= 3
		if got := r.Live(c, 0); got != want {
			t.Errorf("Live(%d,0) = %v, want %v", c, got, want)
		}
	}
	// Byzantine nodes count against the correct set for liveness too.
	if r.Live(1, 2) {
		t.Error("2 correct of 5 cannot be live")
	}
}

func TestRaftUnsafeQuorumSizing(t *testing.T) {
	// Qvc too small: N=5, Qvc=2 violates N < 2*Qvc.
	r := Raft{NNodes: 5, QPer: 4, QVC: 2}
	if r.QuorumsSafe() {
		t.Error("N >= 2*Qvc must be unsafe (split elections)")
	}
	if r.Safe(0, 0) {
		t.Error("Safe must reflect quorum sizing")
	}
	// Qper + Qvc too small: persistence can be lost across views.
	r2 := Raft{NNodes: 5, QPer: 2, QVC: 3}
	if r2.QuorumsSafe() {
		t.Error("N >= Qper+Qvc must be unsafe")
	}
	// Flexible-quorum Raft: N=5, Qper=4, Qvc=3 is safe and valid.
	r3 := Raft{NNodes: 5, QPer: 4, QVC: 3}
	if !r3.QuorumsSafe() {
		t.Error("flexible sizing 4+3 over 5 must be safe")
	}
}

func TestRaftValidate(t *testing.T) {
	if err := NewRaft(3).Validate(); err != nil {
		t.Errorf("valid raft rejected: %v", err)
	}
	for _, bad := range []Raft{
		{NNodes: 0, QPer: 1, QVC: 1},
		{NNodes: 3, QPer: 0, QVC: 2},
		{NNodes: 3, QPer: 4, QVC: 2},
		{NNodes: 3, QPer: 2, QVC: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid raft accepted: %+v", bad)
		}
	}
}

func TestPBFTTheorem31Safety(t *testing.T) {
	p := NewPBFT(1) // N=4, quorums 3, trigger 2
	// Safe iff b < 2*3-4 = 2 and b < 3+3-4 = 2, i.e. b <= 1 = f.
	for b := 0; b <= 4; b++ {
		want := b <= 1
		if got := p.Safe(0, b); got != want {
			t.Errorf("Safe(0,%d) = %v, want %v", b, got, want)
		}
	}
	// Crashes do not affect PBFT safety (only equivocation does).
	if !p.Safe(4, 0) {
		t.Error("all-crashed configuration is vacuously safe")
	}
}

func TestPBFTTheorem31Liveness(t *testing.T) {
	p := NewPBFT(1) // N=4
	// Live iff b <= Qvc-Qvct = 1, correct >= 3, b < Qvct = 2.
	if !p.Live(0, 0) || !p.Live(0, 1) || !p.Live(1, 0) {
		t.Error("f-threshold configurations must be live")
	}
	if p.Live(0, 2) {
		t.Error("b=2 exceeds every liveness condition for f=1")
	}
	if p.Live(2, 0) {
		t.Error("2 crashes leave only 2 correct < quorum 3")
	}
	if p.Live(1, 1) {
		t.Error("1 crash + 1 byz leaves 2 correct < 3")
	}
}

func TestPBFTErratumDirection(t *testing.T) {
	// The as-printed reading b <= Qvct - Qvc would make liveness impossible
	// for every Table 1 configuration; our reading must keep the fault-free
	// configuration live in all of them.
	for _, m := range Table1Configs() {
		if !m.Live(0, 0) {
			t.Errorf("%s: fault-free configuration not live", m.Name())
		}
	}
}

func TestPBFTFiveNodeAsymmetry(t *testing.T) {
	// Table 1's N=5 row: quorums of 4, trigger 2. Safety tolerates b <= 2;
	// liveness only one fault.
	m := Table1Configs()[1]
	if !m.Safe(0, 2) || m.Safe(0, 3) {
		t.Error("N=5 safety boundary wrong")
	}
	if !m.Live(1, 0) || m.Live(2, 0) || m.Live(0, 2) {
		t.Error("N=5 liveness boundary wrong")
	}
}

func TestPBFTValidate(t *testing.T) {
	if err := NewPBFT(2).Validate(); err != nil {
		t.Errorf("valid pbft rejected: %v", err)
	}
	for _, bad := range []PBFT{
		{NNodes: 0, QEq: 1, QPer: 1, QVC: 1, QVCT: 1},
		{NNodes: 4, QEq: 5, QPer: 3, QVC: 3, QVCT: 2},
		{NNodes: 4, QEq: 3, QPer: 0, QVC: 3, QVCT: 2},
		{NNodes: 4, QEq: 3, QPer: 3, QVC: 3, QVCT: 9},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid pbft accepted: %+v", bad)
		}
	}
}

func TestModelNames(t *testing.T) {
	if NewRaft(3).Name() == "" || NewPBFT(1).Name() == "" {
		t.Error("models must have names")
	}
	if NewRaft(5).N() != 5 || NewPBFT(1).N() != 4 {
		t.Error("N accessors wrong")
	}
}

func TestNewPBFTTextbookSizes(t *testing.T) {
	p := NewPBFT(2)
	if p.NNodes != 7 || p.QEq != 5 || p.QPer != 5 || p.QVC != 5 || p.QVCT != 3 {
		t.Errorf("NewPBFT(2) = %+v", p)
	}
}

// The Theorem 3.1 and 3.2 inequalities as they were written before the
// models returned count regions, kept verbatim as the oracle of
// CountModel.Regions.

func oracleRaftSafe(r Raft, crashed, byz int) bool {
	return r.QuorumsSafe() && byz == 0
}

func oracleRaftLive(r Raft, crashed, byz int) bool {
	correct := r.NNodes - crashed - byz
	return correct >= r.QPer && correct >= r.QVC
}

func oraclePBFTSafe(p PBFT, crashed, byz int) bool {
	return byz < 2*p.QEq-p.NNodes && byz < p.QPer+p.QVC-p.NNodes
}

func oraclePBFTLive(p PBFT, crashed, byz int) bool {
	correct := p.NNodes - crashed - byz
	if byz > p.QVC-p.QVCT {
		return false
	}
	if correct < p.QEq || correct < p.QPer || correct < p.QVC {
		return false
	}
	return byz < p.QVCT
}

// checkRegions compares a model's regions (and their intersection) with
// the oracle predicates at every outcome (c, b), c + b <= N.
func checkRegions(t *testing.T, m CountModel, safeOK, liveOK func(c, b int) bool) {
	t.Helper()
	safe, live := m.Regions()
	both := safe.Intersect(live)
	n := m.N()
	for c := 0; c <= n; c++ {
		for b := 0; c+b <= n; b++ {
			s, l := safeOK(c, b), liveOK(c, b)
			if safe.Holds(c, b) != s || m.Safe(c, b) != s ||
				live.Holds(c, b) != l || m.Live(c, b) != l || both.Holds(c, b) != (s && l) {
				t.Fatalf("%s at (c=%d, b=%d): regions safe %+v live %+v disagree with the inequalities (safe %v, live %v)",
					m.Name(), c, b, safe, live, s, l)
			}
		}
	}
}

func TestRegionsMatchTheoremInequalities(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for qper := 1; qper <= n; qper++ {
			for qvc := 1; qvc <= n; qvc++ {
				r := Raft{NNodes: n, QPer: qper, QVC: qvc}
				checkRegions(t, r,
					func(c, b int) bool { return oracleRaftSafe(r, c, b) },
					func(c, b int) bool { return oracleRaftLive(r, c, b) })
			}
		}
	}
	for n := 1; n <= 10; n++ {
		for qeq := 1; qeq <= n; qeq++ {
			for qper := 1; qper <= n; qper++ {
				for qvc := 1; qvc <= n; qvc++ {
					for qvct := 1; qvct <= n; qvct++ {
						p := PBFT{NNodes: n, QEq: qeq, QPer: qper, QVC: qvc, QVCT: qvct}
						checkRegions(t, p,
							func(c, b int) bool { return oraclePBFTSafe(p, c, b) },
							func(c, b int) bool { return oraclePBFTLive(p, c, b) })
					}
				}
			}
		}
	}
}
