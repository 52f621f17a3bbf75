package trace

import "testing"

func TestAgreementClean(t *testing.T) {
	r := NewRecorder(3)
	for node := 0; node < 3; node++ {
		r.OnCommit(node, 0, "a")
		r.OnCommit(node, 1, "b")
	}
	if err := r.CheckAgreement(); err != nil {
		t.Errorf("clean run flagged: %v", err)
	}
}

func TestAgreementViolationAcrossNodes(t *testing.T) {
	r := NewRecorder(2)
	r.OnCommit(0, 0, "a")
	r.OnCommit(1, 0, "b")
	if err := r.CheckAgreement(); err == nil {
		t.Error("divergent slot not detected")
	}
}

func TestAgreementRewriteDetected(t *testing.T) {
	r := NewRecorder(1)
	r.OnCommit(0, 0, "a")
	r.OnCommit(0, 0, "b")
	if err := r.CheckAgreement(); err == nil {
		t.Error("slot rewrite not detected")
	}
}

func TestReplayIsIdempotent(t *testing.T) {
	r := NewRecorder(1)
	r.OnCommit(0, 0, "a")
	r.OnCommit(0, 0, "a") // replay after restart
	if err := r.CheckAgreement(); err != nil {
		t.Errorf("idempotent replay flagged: %v", err)
	}
	if r.CommitCount(0) != 1 {
		t.Errorf("CommitCount=%d", r.CommitCount(0))
	}
}

func TestAgreementWithGaps(t *testing.T) {
	// A node that skipped a slot but agrees where it committed is safe.
	r := NewRecorder(2)
	r.OnCommit(0, 0, "a")
	r.OnCommit(0, 1, "b")
	r.OnCommit(1, 1, "b")
	if err := r.CheckAgreement(); err != nil {
		t.Errorf("gap flagged: %v", err)
	}
}

func TestCommittedDensePrefix(t *testing.T) {
	r := NewRecorder(1)
	r.OnCommit(0, 0, "a")
	r.OnCommit(0, 1, "b")
	r.OnCommit(0, 3, "d") // gap at 2
	got := r.Committed(0)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Committed=%v", got)
	}
	if r.CommitCount(0) != 3 {
		t.Errorf("CommitCount=%d", r.CommitCount(0))
	}
	if r.MaxSlot() != 3 {
		t.Errorf("MaxSlot=%d", r.MaxSlot())
	}
}

func TestCommonPrefix(t *testing.T) {
	r := NewRecorder(3)
	for s := 0; s < 5; s++ {
		r.OnCommit(0, s, "x")
	}
	for s := 0; s < 3; s++ {
		r.OnCommit(1, s, "x")
	}
	if got := r.CommonPrefix([]int{0, 1}); got != 3 {
		t.Errorf("CommonPrefix=%d", got)
	}
	if got := r.CommonPrefix([]int{0, 1, 2}); got != 0 {
		t.Errorf("CommonPrefix with empty node=%d", got)
	}
	if got := r.CommonPrefix(nil); got != 0 {
		t.Errorf("CommonPrefix(nil)=%d", got)
	}
}

func TestMaxSlotEmpty(t *testing.T) {
	r := NewRecorder(2)
	if r.MaxSlot() != -1 {
		t.Errorf("MaxSlot of empty recorder = %d", r.MaxSlot())
	}
	if r.Summary() == "" {
		t.Error("empty Summary")
	}
}
