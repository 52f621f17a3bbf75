package montecarlo

// LogW returns the log likelihood ratio of the configuration Next drew
// last: its row's increments summed in draw order, as the estimator
// prices an accepted sample. Tests whose event reads per-node outcomes
// price their hits with it.
func LogW(d *Draws) float64 { return d.logW(d.rows[:len(d.inc)]) }
