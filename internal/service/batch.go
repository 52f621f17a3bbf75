package service

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// POST /v1/batch: many queries, one request. A dashboard rendering a
// fleet page needs an analyze, a tail, and a few sweeps; issuing them as
// N HTTP round trips pays N times for connection handling, JSON framing,
// and cache lookups. The batch endpoint accepts a list of
// analyze/sweep/optimize/tail items, deduplicates identical analyze and
// tail items by their canonical fingerprint keys, and runs the distinct
// work over the server's one shared evaluator pool with a bounded worker
// group, returning a single index-aligned response.
//
// Item validation is isolated: a bad item yields an error in its result
// slot, never a whole-request failure. Only an unreadable body, an empty
// batch, or an oversized batch reject the request — and those are client
// errors.

// Batch bounds. MaxBatchItems bounds the per-request fan-out; the body
// bound is larger than the single-request bound since a batch legally
// carries up to MaxBatchItems maximal requests.
const (
	MaxBatchItems     = 256
	maxBatchBodyBytes = 8 << 20
)

// BatchItem is one query in a batch: exactly one of the fields is set.
type BatchItem struct {
	Analyze  *AnalyzeRequest  `json:"analyze,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Optimize *OptimizeRequest `json:"optimize,omitempty"`
	Tail     *TailRequest     `json:"tail,omitempty"`
}

// kind names the item's query type, or errors when the item does not set
// exactly one field.
func (it BatchItem) kind() (string, error) {
	kind, n := "", 0
	if it.Analyze != nil {
		kind, n = "analyze", n+1
	}
	if it.Sweep != nil {
		kind, n = "sweep", n+1
	}
	if it.Optimize != nil {
		kind, n = "optimize", n+1
	}
	if it.Tail != nil {
		kind, n = "tail", n+1
	}
	switch n {
	case 1:
		return kind, nil
	case 0:
		return "", fmt.Errorf("item must set one of analyze, sweep, optimize, tail")
	default:
		return "", fmt.Errorf("item sets %d of analyze/sweep/optimize/tail, want exactly 1", n)
	}
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one item's outcome: the response field matching the
// item's kind, or an error message. Deduplicated items share one result.
type BatchItemResult struct {
	Analyze  *AnalyzeResponse  `json:"analyze,omitempty"`
	Sweep    []SweepLine       `json:"sweep,omitempty"`
	Optimize *OptimizeResponse `json:"optimize,omitempty"`
	Tail     *TailResponse     `json:"tail,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch answer. Items is aligned
// index-for-index with the request. Distinct counts the computations
// actually scheduled; Deduped counts the items answered by another
// item's computation.
type BatchResponse struct {
	Items    []BatchItemResult `json:"items"`
	Distinct int               `json:"distinct"`
	Deduped  int               `json:"deduped"`
}

// batchJob is one scheduled computation and the request indexes it
// answers. key is the dedup identity ("" = never deduplicated).
type batchJob struct {
	key     string
	indexes []int
	run     func() BatchItemResult
}

// planBatch validates every item and builds the distinct job list.
// Per-item validation failures land in results; the returned error is
// non-nil only for whole-request (client) errors. Jobs are not yet run —
// the fuzz target exercises planning without ever touching the engine.
func (s *Server) planBatch(req BatchRequest) (jobs []*batchJob, results []BatchItemResult, deduped int, err error) {
	if len(req.Items) == 0 {
		return nil, nil, 0, badRequest(fmt.Errorf("batch items must be non-empty"))
	}
	if len(req.Items) > MaxBatchItems {
		return nil, nil, 0, badRequest(fmt.Errorf("batch has %d items, maximum is %d", len(req.Items), MaxBatchItems))
	}
	results = make([]BatchItemResult, len(req.Items))
	byKey := make(map[string]*batchJob)
	add := func(i int, key string, run func() BatchItemResult) {
		if key != "" {
			if j, ok := byKey[key]; ok {
				j.indexes = append(j.indexes, i)
				deduped++
				return
			}
		}
		j := &batchJob{key: key, indexes: []int{i}, run: run}
		if key != "" {
			byKey[key] = j
		}
		jobs = append(jobs, j)
	}
	for i, it := range req.Items {
		kind, err := it.kind()
		if err == nil {
			s.m.batchItems[kind].Inc()
			key, run, perr := s.planItem(kind, it)
			if perr == nil {
				add(i, key, run)
				continue
			}
			err = perr
		}
		results[i].Error = err.Error()
		s.m.batchItemErrors.Inc()
	}
	return jobs, results, deduped, nil
}

// planItem plans one item exactly as its endpoint plans it and returns
// the job that runs that plan: batch validation is endpoint validation,
// and nothing is resolved, bounded or keyed a second time. key is the
// dedup identity ("" = never deduplicated).
func (s *Server) planItem(kind string, it BatchItem) (key string, run func() BatchItemResult, err error) {
	switch kind {
	case "analyze":
		p, err := planAnalyze(*it.Analyze, nil)
		return "analyze/" + p.key, func() BatchItemResult {
			resp, _, err := s.analyzeQuery(p, nil, true)
			return itemResult(BatchItemResult{Analyze: &resp}, err)
		}, err
	case "tail":
		p, err := planTail(*it.Tail)
		return "tail/" + p.key, func() BatchItemResult {
			resp, err := s.runTail(p, nil)
			return itemResult(BatchItemResult{Tail: &resp}, err)
		}, err
	case "optimize":
		// No dedup key: the optimize cache key is name-invariant while each
		// response carries its own requester's labels, and identical
		// concurrent items coalesce in the cache's singleflight anyway.
		p, err := planOptimize(*it.Optimize)
		return "", func() BatchItemResult {
			resp, err := s.runOptimize(p, nil)
			return itemResult(BatchItemResult{Optimize: &resp}, err)
		}, err
	default: // "sweep"; kind() admits nothing else
		req := *it.Sweep
		domains, err := req.plan()
		return "", func() BatchItemResult {
			return BatchItemResult{Sweep: s.sweepCollect(req, domains)}
		}, err
	}
}

// itemResult is one job's outcome: its result slot, or its error.
func itemResult(res BatchItemResult, err error) BatchItemResult {
	if err != nil {
		return BatchItemResult{Error: err.Error()}
	}
	return res
}

// sweepCollect computes a planned sweep grid in-memory, in grid order.
// Cells go through sweepCell, so they hit the shared L1 (and count on the
// sweep-cell metrics) exactly like streamed sweeps; engine concurrency
// stays bounded by the worker semaphore inside analyzeQuery.
func (s *Server) sweepCollect(req SweepRequest, domains core.DomainSet) []SweepLine {
	lines := make([]SweepLine, 0, len(req.Ns)*len(req.Ps))
	for _, n := range req.Ns {
		for _, p := range req.Ps {
			lines = append(lines, s.sweepCell(req.Protocol, n, p, domains))
		}
	}
	return lines
}

// Batch answers one batch request. It is the handler's core and the
// batch benchmark entry point.
func (s *Server) Batch(req BatchRequest) (BatchResponse, error) {
	return s.batchTraced(req, nil)
}

// batchTraced is Batch with the request's trace threaded through. The
// job fan-out uses a bounded worker group sized by the server's worker
// count: the group bounds scheduling (goroutines, queue depth), while
// engine concurrency stays bounded by the shared evaluator semaphore the
// jobs' query paths already respect.
func (s *Server) batchTraced(req BatchRequest, tr *obs.Trace) (BatchResponse, error) {
	pstart := time.Now()
	jobs, results, deduped, err := s.planBatch(req)
	if err != nil {
		return BatchResponse{}, err
	}
	tr.Since("plan", pstart)
	s.m.batchDedup.Add(int64(deduped))
	rstart := time.Now()
	if len(jobs) > 0 {
		nWorkers := s.workers
		if nWorkers > len(jobs) {
			nWorkers = len(jobs)
		}
		idxCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range idxCh {
					res := jobs[j].run()
					for _, i := range jobs[j].indexes {
						results[i] = res
					}
				}
			}()
		}
		for j := range jobs {
			idxCh <- j
		}
		close(idxCh)
		wg.Wait()
	}
	tr.Since("run", rstart)
	return BatchResponse{Items: results, Distinct: len(jobs), Deduped: deduped}, nil
}

// BatchStats is the /statsz batch block.
type BatchStats struct {
	// Items counts batch items accepted, across all batch requests.
	Items int64 `json:"items"`
	// Deduped counts items answered by another item's computation.
	Deduped int64 `json:"deduped"`
	// ItemErrors counts items rejected by per-item validation.
	ItemErrors int64 `json:"item_errors"`
}

func (s *Server) batchStats() BatchStats {
	var items int64
	for _, c := range s.m.batchItems {
		items += c.Load()
	}
	return BatchStats{
		Items:      items,
		Deduped:    s.m.batchDedup.Load(),
		ItemErrors: s.m.batchItemErrors.Load(),
	}
}
