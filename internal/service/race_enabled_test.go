//go:build race

package service

// raceEnabled reports whether the race detector is active: sync.Pool
// drops items at random under it, so allocation pins on pooled paths are
// meaningless there.
const raceEnabled = true
