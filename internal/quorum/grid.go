package quorum

import "fmt"

// Grid is the classic grid quorum system (related-work lineage the paper
// cites through Naor-Wool): nodes are arranged in a Rows x Cols grid and a
// quorum is one full row plus one cell from every other row (here, the
// common simplification: one full row plus one full column). Quorums are
// O(sqrt(N)) — exactly the sizing §4 argues probabilistic thinking makes
// respectable — while still guaranteeing pairwise intersection.
type Grid struct {
	Rows, Cols int
}

// NewGrid validates the shape.
func NewGrid(rows, cols int) (Grid, error) {
	if rows <= 0 || cols <= 0 {
		return Grid{}, fmt.Errorf("quorum: grid %dx%d invalid", rows, cols)
	}
	return Grid{Rows: rows, Cols: cols}, nil
}

// N implements System.
func (g Grid) N() int { return g.Rows * g.Cols }

// index maps (row, col) to node id.
func (g Grid) index(r, c int) int { return r*g.Cols + c }

// IsQuorum implements System: s is a quorum iff it contains at least one
// full row and at least one full column.
func (g Grid) IsQuorum(s Set) bool {
	rowFull := false
	for r := 0; r < g.Rows && !rowFull; r++ {
		full := true
		for c := 0; c < g.Cols; c++ {
			if !s.Has(g.index(r, c)) {
				full = false
				break
			}
		}
		rowFull = full
	}
	if !rowFull {
		return false
	}
	for c := 0; c < g.Cols; c++ {
		full := true
		for r := 0; r < g.Rows; r++ {
			if !s.Has(g.index(r, c)) {
				full = false
				break
			}
		}
		if full {
			return true
		}
	}
	return false
}

// MinSize implements System: a row plus a column share one cell.
func (g Grid) MinSize() int { return g.Rows + g.Cols - 1 }

// String implements System.
func (g Grid) String() string { return fmt.Sprintf("grid(%dx%d)", g.Rows, g.Cols) }
