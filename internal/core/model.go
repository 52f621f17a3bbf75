package core

import (
	"fmt"

	"repro/internal/dist"
)

// CountModel is a protocol whose safety and liveness depend only on how
// many nodes crashed and how many are Byzantine — true of Theorems 3.1 and
// 3.2, whose conditions are inequalities over |Byz| and |Correct|.
type CountModel interface {
	// N returns the cluster size the model is specialised for.
	N() int
	// Regions returns the model's safe and live sets of (#crashed,
	// #Byzantine) outcomes. Both theorems' conditions bound only the
	// Byzantine count and the faulty count, so each set is a count
	// region; Safe and Live are membership in them.
	Regions() (safe, live dist.Region)
	// Safe reports whether every run of a configuration with the given
	// fault counts preserves agreement.
	Safe(crashed, byz int) bool
	// Live reports whether every run of such a configuration eventually
	// commits all operations at all correct nodes.
	Live(crashed, byz int) bool
	// Name identifies the protocol in reports.
	Name() string
}

// Raft is Theorem 3.2: Raft specialised to persistence quorum size QPer and
// view-change (election) quorum size QVC over NNodes nodes.
//
// Safety holds iff N < QPer + QVC and N < 2*QVC — quorum-sizing conditions
// independent of which nodes crashed. Raft is a CFT protocol: a Byzantine
// node is outside its fault model and voids safety, so Safe additionally
// requires byz == 0 (Table 1/2 reproductions never exercise this case:
// their Raft fleets are crash-only).
//
// Liveness holds iff enough correct nodes remain to form both quorums.
type Raft struct {
	NNodes int
	QPer   int
	QVC    int
}

// NewRaft returns the classic majority-quorum Raft over n nodes — the
// configuration of every Table 2 row.
func NewRaft(n int) Raft {
	maj := n/2 + 1
	return Raft{NNodes: n, QPer: maj, QVC: maj}
}

// N implements CountModel.
func (r Raft) N() int { return r.NNodes }

// QuorumsSafe reports the static Theorem 3.2 safety conditions
// (1) N < QPer + QVC and (2) N < 2*QVC.
func (r Raft) QuorumsSafe() bool {
	return r.NNodes < r.QPer+r.QVC && r.NNodes < 2*r.QVC
}

// Regions implements CountModel. Safe: the quorum conditions hold and no
// node is Byzantine (b <= 0), empty otherwise. Live: |Correct| >= QPer and
// |Correct| >= QVC, i.e. c + b <= N - max(QPer, QVC).
func (r Raft) Regions() (safe, live dist.Region) {
	safe = dist.Region{Byz: 0, Faulty: r.NNodes}
	if !r.QuorumsSafe() {
		safe.Byz = -1
	}
	live = dist.Region{Byz: r.NNodes, Faulty: r.NNodes - max(r.QPer, r.QVC)}
	return safe, live
}

// Safe implements CountModel.
func (r Raft) Safe(crashed, byz int) bool {
	safe, _ := r.Regions()
	return safe.Holds(crashed, byz)
}

// Live implements CountModel.
func (r Raft) Live(crashed, byz int) bool {
	_, live := r.Regions()
	return live.Holds(crashed, byz)
}

// Name implements CountModel.
func (r Raft) Name() string {
	return fmt.Sprintf("Raft(N=%d,Qper=%d,Qvc=%d)", r.NNodes, r.QPer, r.QVC)
}

// Validate rejects impossible quorum sizes.
func (r Raft) Validate() error {
	if r.NNodes <= 0 {
		return fmt.Errorf("core: raft needs N > 0, got %d", r.NNodes)
	}
	if r.QPer < 1 || r.QPer > r.NNodes || r.QVC < 1 || r.QVC > r.NNodes {
		return fmt.Errorf("core: raft quorums out of range: N=%d Qper=%d Qvc=%d", r.NNodes, r.QPer, r.QVC)
	}
	return nil
}

// PBFT is Theorem 3.1: PBFT specialised to the four quorum sizes of §3.1
// over NNodes nodes.
//
// Safety (depends only on the Byzantine count b):
//
//	(1) b < 2*QEq - N      — non-equivocation quorums intersect in a
//	                         correct node;
//	(2) b < QPer + QVC - N — persistence and view-change quorums intersect
//	                         in a correct node.
//
// Liveness (b Byzantine, c correct):
//
//	(1) b <= QVC - QVCT    — Byzantine nodes alone cannot block assembling
//	                         a view-change quorum once the trigger fires;
//	(2) c >= max(QEq, QPer, QVC) — enough correct nodes to form quorums;
//	(3) b < QVCT           — Byzantine nodes cannot fabricate a spurious
//	                         view-change trigger.
//
// Erratum: the paper prints liveness (1) as b <= QVCT - QVC, which is
// negative for every Table 1 row and would make PBFT never live. The
// swapped reading above reproduces Table 1 exactly (see DESIGN.md and
// TestReproduceTable1).
type PBFT struct {
	NNodes int
	QEq    int
	QPer   int
	QVC    int
	QVCT   int
}

// NewPBFT returns the textbook PBFT deployment for fault threshold f:
// N = 3f+1, quorums of 2f+1, trigger quorum f+1.
func NewPBFT(f int) PBFT {
	return PBFT{NNodes: 3*f + 1, QEq: 2*f + 1, QPer: 2*f + 1, QVC: 2*f + 1, QVCT: f + 1}
}

// NewPBFTForN returns the textbook PBFT deployment over n nodes: the
// tolerated fault threshold is f = (n-1)/3, quorums 2f+1, trigger f+1.
// This is the single home of that derivation — the serving layer, the
// validation harness, and the CLIs all default through it.
func NewPBFTForN(n int) PBFT {
	f := (n - 1) / 3
	return PBFT{NNodes: n, QEq: 2*f + 1, QPer: 2*f + 1, QVC: 2*f + 1, QVCT: f + 1}
}

// N implements CountModel.
func (p PBFT) N() int { return p.NNodes }

// Regions implements CountModel. Safety (1) and (2) bound b alone:
// b <= min(2·QEq - N, QPer + QVC - N) - 1. Liveness (1) and (3) bound b,
// b <= min(QVC - QVCT, QVCT - 1), and (2) the faulty count,
// c + b <= N - max(QEq, QPer, QVC).
func (p PBFT) Regions() (safe, live dist.Region) {
	n := p.NNodes
	safe = dist.Region{Byz: min(2*p.QEq-n, p.QPer+p.QVC-n) - 1, Faulty: n}
	live = dist.Region{Byz: min(p.QVC-p.QVCT, p.QVCT-1), Faulty: n - max(p.QEq, p.QPer, p.QVC)}
	return safe, live
}

// Safe implements CountModel.
func (p PBFT) Safe(crashed, byz int) bool {
	safe, _ := p.Regions()
	return safe.Holds(crashed, byz)
}

// Live implements CountModel.
func (p PBFT) Live(crashed, byz int) bool {
	_, live := p.Regions()
	return live.Holds(crashed, byz)
}

// Name implements CountModel.
func (p PBFT) Name() string {
	return fmt.Sprintf("PBFT(N=%d,Qeq=%d,Qper=%d,Qvc=%d,Qvct=%d)",
		p.NNodes, p.QEq, p.QPer, p.QVC, p.QVCT)
}

// Validate rejects impossible quorum sizes.
func (p PBFT) Validate() error {
	if p.NNodes <= 0 {
		return fmt.Errorf("core: pbft needs N > 0, got %d", p.NNodes)
	}
	for _, q := range []struct {
		name string
		v    int
	}{
		{"Qeq", p.QEq}, {"Qper", p.QPer}, {"Qvc", p.QVC}, {"Qvct", p.QVCT},
	} {
		if q.v < 1 || q.v > p.NNodes {
			return fmt.Errorf("core: pbft %s=%d out of range for N=%d", q.name, q.v, p.NNodes)
		}
	}
	return nil
}
