package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection. Requests are written by hand
// and responses parsed by net/http, so the generator spends as little of
// the box's two cores as it can.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	hdr []byte
	buf bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads the whole response. The returned body is
// only valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	h := append(c.hdr[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		h = append(h, "Content-Type: application/json\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	c.hdr = h
	// One write per request: header and body leave in the same segment.
	if _, err := (&net.Buffers{h, body}).WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// numConns is the sizing rule: one generator process with as many
// keep-alive connections as cores, capped at 4.
func numConns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// sample is one completed request: when it ended (since the phase began)
// and how long it took.
type sample struct{ end, lat time.Duration }

// kept is a response held back for the reference check after the phase.
type kept struct {
	k    int
	req  request
	body []byte
}

// maxKept bounds the reference checks of one phase (the sample is 1-in-K,
// and K is sized so a 10 s run stays well under this).
const maxKept = 96

// phase collects what one load phase saw.
type phase struct {
	nominal   time.Duration // how long the phase was asked to run
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	kept      []kept
	// cpu[i] is the daemon's CPU seconds at segment boundary i (closed
	// loop only; len = segments+1).
	cpu []float64
	// late is how far behind schedule each open-loop request was handed
	// to a connection.
	late []time.Duration
	// bursts are the calibration bursts the closed-loop workers timed
	// between requests (closed loop with segments only).
	bursts []sample
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// quickCheck is the in-loop check of every response: status 2xx and the
// expected "cached" verdict.
func quickCheck(req request, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("%s: status %d: %.200s", req.path(), status, body)
	}
	switch req.cached {
	case cachedTrue:
		if !bytes.Contains(body, []byte(`"cached": true`)) {
			return fmt.Errorf("%s: want cached:true, got %.300s", req.path(), body)
		}
	case cachedFalse:
		if !bytes.Contains(body, []byte(`"cached": false`)) {
			return fmt.Errorf("%s: want cached:false, got %.300s", req.path(), body)
		}
	}
	return nil
}

// The box the benchmark runs on is a few vCPUs of a shared host whose speed
// is not constant: the same instructions take 1.0 to 1.5 times as long from
// one minute to the next, whatever the program under test does (README.md,
// "How steady it is"). So every closed-loop worker times, between requests,
// a fixed burst of arithmetic that has nothing to do with probconsd. How
// long the bursts of a segment took, against nominalBurst, says how slow
// the box was in that segment, and the end-to-end readings of the segment
// are reported at the nominal speed.

// nominalBurst is what one burst takes on the reference box when nothing
// else contends for it. It only fixes the scale: parent and change are
// always measured with the same constant.
const nominalBurst = 1150 * time.Microsecond

// burstEvery is how often each worker stops for a burst: about 1 ms of
// arithmetic per 200 ms and connection, half a percent of the box.
const burstEvery = 200 * time.Millisecond

// burst runs the fixed arithmetic — an in-cache probability convolution,
// the kind of inner loop the engine is made of — and times it. The sum is
// returned so the compiler cannot drop the work.
func burst() (time.Duration, float64) {
	var a [512]float64
	a[0] = 1
	start := time.Now()
	for round := 0; round < 6; round++ {
		for i := 1; i < len(a); i++ {
			p := 0.01 + float64(i)*1e-4
			for j := i; j > 0; j-- {
				a[j] = a[j]*(1-p) + a[j-1]*p
			}
			a[0] *= 1 - p
		}
	}
	return time.Since(start), a[len(a)/4]
}

// slowdown is how many times slower than nominal the box ran the given
// bursts: the median burst over nominalBurst. No bursts reads 0.
func slowdown(bursts []time.Duration) float64 {
	xs := make([]float64, len(bursts))
	for i, b := range bursts {
		xs[i] = float64(b)
	}
	return median(xs) / float64(nominalBurst)
}

// worker state shared by the closed and open loops: one connection, its own
// result slices (merged after the phase, so the hot path takes no lock).
type worker struct {
	addr string
	w    *workload
	c    *conn
	p    phase
	sink float64 // what the bursts computed
}

// issue sends request k, times it from `from`, checks it, and records it.
func (wk *worker) issue(k int, req request, from, phaseStart time.Time) {
	wk.p.attempted++
	if wk.c == nil {
		c, err := dial(wk.addr)
		if err != nil {
			wk.p.fail(err)
			return
		}
		wk.c = c
	}
	status, body, err := wk.c.do("POST", req.path(), req.body)
	now := time.Now()
	if err != nil {
		wk.p.fail(fmt.Errorf("%s: %w", req.path(), err))
		wk.c.close()
		wk.c = nil
		return
	}
	if err := quickCheck(req, status, body); err != nil {
		wk.p.fail(err)
		return
	}
	wk.p.samples = append(wk.p.samples, sample{end: now.Sub(phaseStart), lat: now.Sub(from)})
	if k%wk.w.verifyEvery == 0 && len(wk.p.kept) < maxKept {
		wk.p.kept = append(wk.p.kept, kept{k: k, req: req, body: append([]byte(nil), body...)})
	}
}

func mergeWorkers(workers []*worker, nominal time.Duration) *phase {
	out := &phase{nominal: nominal}
	for _, wk := range workers {
		if wk.c != nil {
			wk.c.close()
		}
		out.samples = append(out.samples, wk.p.samples...)
		out.kept = append(out.kept, wk.p.kept...)
		out.late = append(out.late, wk.p.late...)
		out.bursts = append(out.bursts, wk.p.bursts...)
		out.attempted += wk.p.attempted
		out.failed += wk.p.failed
		if out.firstErr == nil {
			out.firstErr = wk.p.firstErr
		}
	}
	return out
}

// closedLoop drives the daemon from `conns` connections, each sending its
// next request only after the previous answer arrived, for dur or until
// `limit` requests have been taken (0 = no limit). Requests are taken from
// the shared counter next, so the stream stays one deterministic sequence.
// With segments > 0 the daemon's CPU clock is read at each segment
// boundary and every worker times a calibration burst each burstEvery.
func closedLoop(d *daemon, w *workload, next *atomic.Int64, conns int, dur time.Duration, limit int64, segments int) (*phase, error) {
	workers := make([]*worker, conns)
	for i := range workers {
		workers[i] = &worker{addr: d.addr, w: w}
	}
	var cpu []float64
	var cpuErr error
	start := time.Now()
	deadline := start.Add(dur)
	stopAt := next.Load() + limit
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			lastBurst := start
			for time.Now().Before(deadline) {
				if segments > 0 && time.Since(lastBurst) >= burstEvery {
					took, sum := burst()
					wk.sink += sum
					lastBurst = time.Now()
					wk.p.bursts = append(wk.p.bursts, sample{end: lastBurst.Sub(start), lat: took})
				}
				k := next.Add(1) - 1
				if limit > 0 && k >= stopAt {
					return
				}
				req := w.request(int(k))
				wk.issue(int(k), req, time.Now(), start)
			}
		}(wk)
	}
	if segments > 0 {
		for i := 0; i <= segments; i++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(segments))))
			v, err := d.cpuSeconds()
			if err != nil {
				cpuErr = err
			}
			cpu = append(cpu, v)
		}
	}
	wg.Wait()
	p := mergeWorkers(workers, dur)
	p.cpu = cpu
	return p, cpuErr
}

// openConns is the open-loop connection pool: enough that the schedule,
// not the pool, decides when a request leaves.
const openConns = 64

// openLoop sends requests on a constant-rate schedule whatever the daemon
// does, timing each from the moment it was due. A stalled daemon therefore
// delays — and is charged for — every request scheduled behind the stall.
func openLoop(d *daemon, w *workload, next *atomic.Int64, rps float64, dur time.Duration) *phase {
	type job struct {
		k   int
		due time.Time
	}
	// Buffered to the whole schedule: the dispatcher must never block on a
	// busy pool, or lateness would hide as back-pressure.
	total := int(rps * dur.Seconds())
	jobs := make(chan job, total)
	workers := make([]*worker, openConns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{addr: d.addr, w: w}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for j := range jobs {
				wk.p.late = append(wk.p.late, time.Since(j.due))
				wk.issue(j.k, w.request(j.k), j.due, start)
			}
		}(workers[i])
	}
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{k: int(next.Add(1) - 1), due: due}
	}
	close(jobs)
	wg.Wait()
	return mergeWorkers(workers, dur)
}
