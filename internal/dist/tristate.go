package dist

// TriState is a node's per-window fault distribution over the three
// states of the paper's failure model: correct, crashed, or Byzantine.
// PCrash + PByz must be <= 1; the remainder is the probability of
// behaving correctly for the whole mission window.
type TriState struct {
	PCrash float64
	PByz   float64
}

// PCorrect returns the probability the node stays correct: 1-PCrash-PByz,
// clamped so that rounding in callers' arithmetic can never produce a
// (tiny) negative probability.
func (t TriState) PCorrect() float64 { return Clamp01(1 - t.PCrash - t.PByz) }
