// Command probconsd is the probcons reliability-analysis daemon: the
// library's exact engines behind a caching, coalescing HTTP/JSON service.
//
// Usage:
//
//	probconsd                          # serve on :8080
//	probconsd -addr :9090 -cache 65536 -workers 16
//	probconsd -metrics-addr :9091 -log-format json
//
// Endpoints:
//
//	POST /v1/analyze  — heterogeneous fleet + Raft/PBFT model → Result
//	POST /v1/sweep    — (n, p) grid, streamed as JSON lines
//	POST /v1/optimize — reliability budget across nodes or zones → certified allocation
//	POST /v1/tail     — deep-tail event mass, exact or importance-sampled under max_work
//	POST /v1/batch    — many analyze/sweep/optimize/tail queries, one response
//	GET  /v1/tables   — the paper's Tables 1 and 2
//	GET  /v1/traces   — the flight recorder, filtered
//	GET  /healthz     — liveness probe
//	GET  /statsz      — cache, worker-pool, and latency counters
//	GET  /metrics     — Prometheus text exposition (see docs/OBSERVABILITY.md)
//
// Identical concurrent queries are coalesced into one computation;
// repeated queries are served from a sharded LRU cache keyed by the
// canonical fleet+model fingerprint. SIGINT/SIGTERM drain in-flight
// requests before exit.
//
// With -metrics-addr unset, /metrics, /debug/pprof/*, and the flight
// recorder's /debug/requests are served on the main listener. Setting
// -metrics-addr moves pprof and /debug/requests (and a second /metrics
// mount) onto a private ops listener, keeping debugging endpoints off
// the public address.
//
// Every request deposits a trace into a fixed-capacity flight recorder
// (-trace-buffer entries); slow requests (-trace-slow-ms, default a
// live per-endpoint p99), errors, and a deterministic 1-in-K sample
// (-trace-sample) survive buffer pressure. Query them via GET
// /v1/traces or the /debug/requests dump.
//
// The access log (one line per request on standard error, -log-format)
// is buffered: lines reach the file once a second and when the daemon
// drains, so a line can be up to a second behind its response and a
// SIGKILL loses at most the last second of them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
)

// config collects the daemon's flag-settable knobs.
type config struct {
	addr        string
	metricsAddr string // "" = ops endpoints share the main listener
	cacheSize   int
	workers     int
	drain       time.Duration
	logFormat   string // "text" or "json"
	logW        *os.File

	traceBuffer int
	traceSlowMS float64 // 0 = dynamic per-endpoint p99 threshold
	traceSample int     // keep 1 in K; 0 disables sampling
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "separate ops listen address for /metrics and /debug/pprof (default: serve them on -addr)")
	flag.IntVar(&cfg.cacheSize, "cache", 4096, "memoization cache capacity (entries)")
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "engine worker pool size: bounds concurrent engine computations on every endpoint")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "access-log format: text or json")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 1024, "flight-recorder capacity (traces)")
	flag.Float64Var(&cfg.traceSlowMS, "trace-slow-ms", 0, "retain traces at least this slow, in ms (0: track each endpoint's live p99)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 64, "always retain 1 in K traces regardless of speed (0 disables sampling)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "probconsd:", err)
		os.Exit(1)
	}
}

// newLogger builds the access logger for the chosen format over a
// buffered writer the caller must Close once the last request is done.
func newLogger(cfg config) (*slog.Logger, *logWriter, error) {
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return nil, nil, fmt.Errorf("log format must be text or json, got %q", cfg.logFormat)
	}
	var w io.Writer = os.Stderr
	if cfg.logW != nil {
		w = cfg.logW
	}
	logs := newLogWriter(w)
	if cfg.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(logs, nil)), logs, nil
	}
	return slog.New(slog.NewTextHandler(logs, nil)), logs, nil
}

// Timeouts both HTTP listeners share. There is deliberately no read or
// write timeout: a long sweep is a legitimate request.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute // an idle keep-alive connection gives its goroutine and descriptor back
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// registerPprof mounts the runtime profiling handlers explicitly — the
// daemon never uses http.DefaultServeMux, so the net/http/pprof side
// effects on it do not leak onto any listener by accident.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func run(cfg config) error {
	if cfg.cacheSize < 1 {
		return fmt.Errorf("cache capacity must be >= 1, got %d", cfg.cacheSize)
	}
	if cfg.workers < 1 {
		return fmt.Errorf("worker count must be >= 1, got %d", cfg.workers)
	}
	if cfg.traceBuffer < 2 {
		return fmt.Errorf("trace buffer must be >= 2, got %d", cfg.traceBuffer)
	}
	if cfg.traceSlowMS < 0 {
		return fmt.Errorf("trace slow threshold must be >= 0 ms, got %g", cfg.traceSlowMS)
	}
	if cfg.traceSample < 0 {
		return fmt.Errorf("trace sample rate must be >= 0, got %d", cfg.traceSample)
	}
	logger, logs, err := newLogger(cfg)
	if err != nil {
		return err
	}
	// Deferred first so it runs last: on every return below the listeners
	// have drained by then, and the buffered lines of their requests land.
	defer func() {
		if err := logs.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "probconsd: flushing the access log:", err)
		}
	}()
	// The service maps TraceSample 0 to its default, so the flag's
	// "0 disables sampling" spelling becomes the negative sentinel here.
	sampleK := cfg.traceSample
	if sampleK == 0 {
		sampleK = -1
	}
	srv := service.New(service.Options{
		CacheCapacity: cfg.cacheSize,
		Workers:       cfg.workers,
		Logger:        logger,
		TraceBuffer:   cfg.traceBuffer,
		TraceSlow:     time.Duration(cfg.traceSlowMS * float64(time.Millisecond)),
		TraceSample:   sampleK,
	})

	root := http.NewServeMux()
	root.Handle("/", srv.Handler())
	if cfg.metricsAddr == "" {
		registerPprof(root)
		root.Handle("/debug/requests", srv.DebugRequestsHandler())
	}
	httpSrv := newHTTPServer(cfg.addr, root)

	errCh := make(chan error, 2)
	go func() {
		fmt.Printf("probconsd: serving on %s (cache %d entries, %d workers)\n",
			cfg.addr, cfg.cacheSize, cfg.workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	var opsSrv *http.Server
	if cfg.metricsAddr != "" {
		ops := http.NewServeMux()
		ops.Handle("/metrics", srv.MetricsHandler())
		registerPprof(ops)
		ops.Handle("/debug/requests", srv.DebugRequestsHandler())
		opsSrv = newHTTPServer(cfg.metricsAddr, ops)
		go func() {
			fmt.Printf("probconsd: ops endpoints (metrics, pprof) on %s\n", cfg.metricsAddr)
			errCh <- opsSrv.ListenAndServe()
		}()
	}

	listeners := 1
	if opsSrv != nil {
		listeners++
	}
	// shutdown drains every listener and collects the serve-loop returns
	// still owed on errCh (pending is listeners minus any error the
	// caller already consumed).
	shutdown := func(why string, pending int) error {
		fmt.Printf("probconsd: %s, draining for up to %v\n", why, cfg.drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		var firstErr error
		if err := httpSrv.Shutdown(ctx); err != nil {
			firstErr = fmt.Errorf("shutdown: %w", err)
		}
		if opsSrv != nil {
			if err := opsSrv.Shutdown(ctx); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("ops shutdown: %w", err)
			}
		}
		for i := 0; i < pending; i++ {
			if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		// One listener died (bad address, port in use): stop the other and
		// surface the original failure.
		if shutdownErr := shutdown("listener failed", listeners-1); shutdownErr != nil && err == nil {
			err = shutdownErr
		}
		return err
	case s := <-sig:
		if err := shutdown(s.String(), listeners); err != nil {
			return err
		}
		st := srv.Stats()
		fmt.Printf("probconsd: done; served analyze=%d sweep=%d tables=%d, cache %d/%d (hits %d, coalesced %d)\n",
			st.Requests.Analyze, st.Requests.Sweep, st.Requests.Tables,
			st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Coalesced)
		return nil
	}
}
