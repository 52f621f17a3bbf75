//go:build race

package service

// raceEnabled reports whether the race detector is active: sync.Pool
// drops items at random under it, so allocation guards on pooled paths
// hold there only to looser bounds (guardBound).
const raceEnabled = true
