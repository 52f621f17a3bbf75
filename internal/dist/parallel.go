package dist

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// parallelFolds counts row-split activations: block convolutions that
// actually fanned out across the worker group (rows >= threshold and more
// than one worker available). The serial small-N path never bumps it, so
// the metric directly answers "is the parallel engine engaging in
// production?".
var parallelFolds = obs.Default().Counter("probcons_engine_parallel_folds_total",
	"Joint-DP block convolutions split across the bounded worker group.", nil)

// This file is the bounded worker group behind the large-N block-
// convolution row split: workers write disjoint contiguous row ranges of
// the output table, so the convolution parallelizes without locks and —
// because every output cell is computed by exactly one worker with a fixed
// per-cell operation order — the parallel result is bit-identical to the
// serial one (pinned by TestConvolveParallelBitIdentical). Small tables
// stay serial: below ParallelRowThreshold the goroutine fan-out would cost
// more than the convolution itself, and keeping the small-N path serial
// also keeps it allocation-free (spawning workers allocates).
//
// Reset's per-node folds are deliberately not split: a band-limited fold
// is ~10 µs at N=256 and ~40 µs at N=1024 on realistic failure curves,
// below fan-out cost — a cell-count-partitioned band split measured slower
// than serial at every size tried (DESIGN.md "Parallel row-split
// determinism rules").

// ParallelRowThreshold is the minimum number of output rows before a block
// convolution splits its rows across workers. 128 rows means a combined
// N >= 127: each output row then sums >= ~8k source products, comfortably
// above goroutine fan-out cost.
const ParallelRowThreshold = 128

// maxJointWorkers bounds the worker group regardless of GOMAXPROCS: the
// row split is memory-bandwidth-bound well before 8 workers.
const maxJointWorkers = 8

// jointWorkers is the worker count large-N row splits use: GOMAXPROCS,
// capped at maxJointWorkers.
func jointWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxJointWorkers {
		w = maxJointWorkers
	}
	return w
}

// splitRows runs fn over [0, rows) in contiguous chunks, one chunk per
// worker, and waits for all of them. fn must only write cells inside its
// [lo, hi) row range; reads of shared input tables are safe because inputs
// are immutable for the duration of the call.
func splitRows(rows, workers int, fn func(lo, hi int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	parallelFolds.Add(1)
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
