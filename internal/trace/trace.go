package trace

import (
	"fmt"
)

// Recorder collects per-node committed logs. It is not safe for concurrent
// use; the simulator is single-threaded by construction.
type Recorder struct {
	n    int
	logs []map[int]string // node -> slot -> value
	// violations collects agreement violations as they happen, so a
	// violating run fails loudly even if the checker runs later.
	violations []string
}

// NewRecorder tracks n nodes.
func NewRecorder(n int) *Recorder {
	logs := make([]map[int]string, n)
	for i := range logs {
		logs[i] = make(map[int]string)
	}
	return &Recorder{n: n, logs: logs}
}

// OnCommit records that node committed value at slot. Re-commits of the
// same value at the same slot (e.g. replay after restart) are idempotent;
// a different value is recorded as a violation.
func (r *Recorder) OnCommit(node, slot int, value string) {
	if prev, ok := r.logs[node][slot]; ok {
		if prev != value {
			r.violations = append(r.violations,
				fmt.Sprintf("node %d rewrote slot %d: %q -> %q", node, slot, prev, value))
		}
		return
	}
	r.logs[node][slot] = value
}

// CheckAgreement returns an error describing the first safety violation:
// two nodes having committed different values at the same slot, or a node
// having rewritten its own slot.
func (r *Recorder) CheckAgreement() error {
	if len(r.violations) > 0 {
		return fmt.Errorf("trace: %s", r.violations[0])
	}
	for slot := range r.allSlots() {
		var val string
		var holder = -1
		for node := 0; node < r.n; node++ {
			v, ok := r.logs[node][slot]
			if !ok {
				continue
			}
			if holder == -1 {
				val, holder = v, node
				continue
			}
			if v != val {
				return fmt.Errorf("trace: slot %d: node %d committed %q but node %d committed %q",
					slot, holder, val, node, v)
			}
		}
	}
	return nil
}

func (r *Recorder) allSlots() map[int]struct{} {
	slots := make(map[int]struct{})
	for _, log := range r.logs {
		for s := range log {
			slots[s] = struct{}{}
		}
	}
	return slots
}

// Committed returns node's committed log as a dense prefix: values for
// slots 0..k-1 where k is the first gap.
func (r *Recorder) Committed(node int) []string {
	var out []string
	for slot := 0; ; slot++ {
		v, ok := r.logs[node][slot]
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// CommonPrefix returns the length of the committed prefix shared by all the
// given nodes — the progress metric for liveness checks.
func (r *Recorder) CommonPrefix(nodes []int) int {
	if len(nodes) == 0 {
		return 0
	}
	shortest := -1
	for _, n := range nodes {
		l := len(r.Committed(n))
		if shortest == -1 || l < shortest {
			shortest = l
		}
	}
	return shortest
}

// CommitCount returns how many slots node has committed (dense or not).
func (r *Recorder) CommitCount(node int) int { return len(r.logs[node]) }

// MaxSlot returns the highest committed slot across all nodes, or -1.
func (r *Recorder) MaxSlot() int {
	max := -1
	for _, log := range r.logs {
		for s := range log {
			if s > max {
				max = s
			}
		}
	}
	return max
}

// Summary renders per-node commit counts for debugging.
func (r *Recorder) Summary() string {
	counts := make([]int, r.n)
	for i := range r.logs {
		counts[i] = len(r.logs[i])
	}
	return fmt.Sprintf("commits per node: %v (max slot %d)", counts, r.MaxSlot())
}
