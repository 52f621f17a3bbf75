package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/faultcurve"
	"repro/internal/obs"
)

// Sweep validates the request, then computes its (n, p) grid with up to
// Workers cells in flight and writes one JSON line per cell to w in grid
// order (ns outer, ps inner), flushing after each line when w supports it.
// Cell-level failures are reported in the cell's line; the stream itself
// completes unless ctx is cancelled (client disconnect), which stops
// scheduling promptly — cells already computing finish and are cached.
func (s *Server) Sweep(ctx context.Context, req SweepRequest, w io.Writer) error {
	domains, err := req.plan()
	if err != nil {
		return badRequest(err)
	}
	return s.sweepStream(ctx, req, domains, w)
}

// sweepStream is Sweep after planning: req is validated and domains is
// its resolved layout.
func (s *Server) sweepStream(ctx context.Context, req SweepRequest, domains core.DomainSet, w io.Writer) error {
	// Stop the spawner on every exit path — client disconnect (parent ctx)
	// or writer error (early return) — not just external cancellation.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cells := len(req.Ns) * len(req.Ps) // cell i is (Ns[i/len(Ps)], Ps[i%len(Ps)])
	// Completed cells land in the shared results slice and announce their
	// index on one buffered channel — a single allocation for the whole
	// grid where a channel per cell used to be. The send/receive pair
	// orders each results[i] write before the writer reads it; the buffer
	// holds every cell, so a worker never blocks on announcing.
	results := make([]SweepLine, cells)
	completed := make(chan int, cells)
	ready := make([]bool, cells)
	// Engine concurrency is bounded by the shared worker pool inside
	// analyzeQuery. This local window provides backpressure against a
	// slow-reading client: tokens are released by the *writer* as lines
	// are consumed, so the spawner never runs more than Workers cells
	// ahead of the stream.
	spawn := make(chan struct{}, s.workers)
	// A fixed worker group per request (capped at the grid size) pulls
	// cell indices from one channel: goroutine and closure costs are per
	// request, not per cell.
	idxCh := make(chan int)
	nWorkers := s.workers
	if nWorkers > cells {
		nWorkers = cells
	}
	for w := 0; w < nWorkers; w++ {
		go func() {
			for i := range idxCh {
				results[i] = s.sweepCell(req.Protocol, req.Ns[i/len(req.Ps)], req.Ps[i%len(req.Ps)], domains)
				completed <- i
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for i := 0; i < cells; i++ {
			select {
			case <-ctx.Done():
				return
			case spawn <- struct{}{}:
			}
			select {
			case <-ctx.Done():
				return
			case idxCh <- i:
			}
		}
	}()
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := 0; i < cells; i++ {
		for !ready[i] {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case done := <-completed:
				ready[done] = true
			}
		}
		<-spawn // consumed: let the spawner schedule the next cell
		if err := enc.Encode(results[i]); err != nil {
			return err // client went away; in-flight cells drain via the buffered channel
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	return nil
}

// sweepCell answers one grid point through the analyze cache: the request
// was validated up front, so the cell only needs keying.
func (s *Server) sweepCell(protocol string, n int, p float64, domains core.DomainSet) SweepLine {
	s.m.activeCells.Inc()
	defer func() {
		s.m.activeCells.Dec()
		s.m.sweepCells.Inc()
	}()
	line := SweepLine{N: n, P: p}
	m, err := ModelSpec{Protocol: protocol, N: n}.Model()
	if err != nil {
		line.Error = err.Error()
		return line
	}
	// A cell takes its own scratch, not the request's: a cell already
	// scheduled finishes after a disconnected client's handler has
	// returned. Nothing downstream retains it: the fingerprint copies the
	// profile bits it needs and the engine reads the fleet only inside the
	// synchronous analyze call.
	sc := getScratch()
	qs := sc.query()
	qs.fleet = uniformCellFleet(qs.fleet, protocol, n, p)
	assignRoundRobin(qs.fleet, domains)
	resp, err := s.answerQuery(&qs.q, qs.fleet, m, domains)
	putScratch(sc)
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Model = resp.Model
	line.Safe = resp.Safe
	line.Live = resp.Live
	line.SafeAndLive = resp.SafeAndLive
	line.Nines = resp.Nines
	return line
}

// uniformCellFleet builds the uniform fleet of one sweep cell in dst's
// array — no per-node name rendering (sweep cells never surface node
// names and the canonical fingerprint excludes them) and no steady-state
// allocation.
func uniformCellFleet(dst core.Fleet, protocol string, n int, p float64) core.Fleet {
	profile := faultcurve.Crash(p)
	if protocol == "pbft" {
		profile = faultcurve.Byzantine(p)
	}
	fleet := dst[:0]
	// Every field of every slot is overwritten, so recycled metadata
	// (domains from a previous request) cannot leak between cells.
	for i := 0; i < n; i++ {
		fleet = append(fleet, core.Node{Profile: profile})
	}
	return fleet
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
	// The stream's target is not pooled: cells already scheduled outlive a
	// disconnected client's handler, and they read req.
	var req SweepRequest
	if err := readRequest(s.m.req["sweep"], maxBodyBytes, w, r, tr, &req); err != nil {
		writeError(w, tr, err)
		return
	}
	// Plan before the 200 header is committed; the stream body then goes
	// through sweepStream so the check runs exactly once.
	vstart := time.Now()
	domains, err := req.plan()
	if err != nil {
		writeError(w, tr, badRequest(err))
		return
	}
	tr.Since("validate", vstart)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sstart := time.Now()
	// Cells are computed by concurrent workers, so cell-level spans stay
	// off the (single-goroutine) trace; the stream span plus the engine
	// counter delta carry the sweep's cost attribution. The status is
	// already sent, so a stream that stops early (client gone, write
	// failed) says so on the trace instead.
	if err := s.sweepStream(r.Context(), req, domains, w); err != nil {
		tr.Event("stream_stopped", err.Error())
	}
	tr.Since("stream", sstart)
}
