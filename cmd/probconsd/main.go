// Command probconsd is the probcons reliability-analysis daemon: the
// library's exact engines behind a caching, coalescing HTTP/JSON service.
//
// Usage:
//
//	probconsd                          # serve on :8080
//	probconsd -addr :9090 -cache 65536 -workers 16
//	probconsd -metrics-addr :9091 -log-format json
//	probconsd -l2-addr :9191 -peers hostA:9191,hostB:9191   # fleet member
//	probconsd -cache-dump /var/lib/probconsd/l1 -cache-load /var/lib/probconsd/l1
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
// canonical fleet+model fingerprint. With -peers set, instances form a
// fleet: each L1 miss consults the key's owning peer (rendezvous hashing
// over the fingerprint) before computing, so the fleet computes each
// distinct query once. SIGINT/SIGTERM drain in-flight requests before
// exit; -cache-dump/-cache-load persist the cache across restarts.
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
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/qcache"
	"repro/internal/service"
)

// config collects the daemon's flag-settable knobs.
type config struct {
	addr        string
	metricsAddr string // "" = ops endpoints share the main listener
	cacheSize   int
	shards      int
	workers     int
	drain       time.Duration
	logFormat   string // "text" or "json"
	logW        *os.File

	traceBuffer int
	traceSlowMS float64 // 0 = dynamic per-endpoint p99 threshold
	traceSample int     // keep 1 in K; 0 disables sampling

	l2Addr    string // "" = no L2 listener
	l2Self    string // this member's entry in peers; "" = l2Addr
	peers     string // comma-separated fleet member L2 addresses
	cacheDump string // write the analyze cache here on graceful shutdown
	cacheLoad string // warm the analyze cache from here at boot
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "separate ops listen address for /metrics and /debug/pprof (default: serve them on -addr)")
	flag.IntVar(&cfg.cacheSize, "cache", 4096, "memoization cache capacity (entries)")
	flag.IntVar(&cfg.shards, "shards", 16, "cache shard count")
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "engine worker pool size: bounds concurrent engine computations on every endpoint")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "access-log format: text or json")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 1024, "flight-recorder capacity (traces)")
	flag.Float64Var(&cfg.traceSlowMS, "trace-slow-ms", 0, "retain traces at least this slow, in ms (0: track each endpoint's live p99)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 64, "always retain 1 in K traces regardless of speed (0 disables sampling)")
	flag.StringVar(&cfg.l2Addr, "l2-addr", "", "listen address for the binary L2 cache-tier protocol (serves this instance's cache to its peers)")
	flag.StringVar(&cfg.l2Self, "l2-self", "", "this instance's own entry in -peers (default: the -l2-addr value; set it when peers reach this instance at a different address)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated L2 addresses of every fleet member including this one, identical on each instance (enables peer-shared caching)")
	flag.StringVar(&cfg.cacheDump, "cache-dump", "", "write the analyze cache to this file on graceful shutdown")
	flag.StringVar(&cfg.cacheLoad, "cache-load", "", "warm the analyze cache from this file at boot (a missing file is skipped, not fatal)")
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
	if cfg.shards < 1 {
		return fmt.Errorf("shard count must be >= 1, got %d", cfg.shards)
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
	peerClient, err := newPeerClient(cfg)
	if err != nil {
		return err
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
	opts := service.Options{
		CacheCapacity: cfg.cacheSize,
		CacheShards:   cfg.shards,
		Workers:       cfg.workers,
		Logger:        logger,
		TraceBuffer:   cfg.traceBuffer,
		TraceSlow:     time.Duration(cfg.traceSlowMS * float64(time.Millisecond)),
		TraceSample:   sampleK,
	}
	if peerClient != nil {
		opts.L2 = peerClient
		defer peerClient.Close()
	}
	srv := service.New(opts)

	if cfg.cacheLoad != "" {
		if err := warmCache(srv, cfg.cacheLoad); err != nil {
			return err
		}
	}

	root := http.NewServeMux()
	root.Handle("/", srv.Handler())
	if cfg.metricsAddr == "" {
		registerPprof(root)
		root.Handle("/debug/requests", srv.DebugRequestsHandler())
	}
	httpSrv := newHTTPServer(cfg.addr, root)

	// The L2 listener binds before anything starts serving: a bad
	// -l2-addr fails the boot outright instead of surfacing as a
	// mid-flight listener death.
	var l2Srv *qcache.PeerServer
	var l2Ln net.Listener
	if cfg.l2Addr != "" {
		ln, err := net.Listen("tcp", cfg.l2Addr)
		if err != nil {
			return fmt.Errorf("l2 listen: %w", err)
		}
		l2Ln = ln
		l2Srv = qcache.NewPeerServer(srv)
	}

	errCh := make(chan error, 3)
	go func() {
		fmt.Printf("probconsd: serving on %s (cache %d entries / %d shards, %d workers)\n",
			cfg.addr, cfg.cacheSize, cfg.shards, cfg.workers)
		errCh <- httpSrv.ListenAndServe()
	}()
	if l2Srv != nil {
		go func() {
			fmt.Printf("probconsd: l2 cache tier on %s (%d peers)\n", cfg.l2Addr, peerCount(peerClient))
			errCh <- l2Srv.Serve(l2Ln)
		}()
	}

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
	if l2Srv != nil {
		listeners++
	}
	// shutdown drains every listener and collects the serve-loop returns
	// still owed on errCh (pending is listeners minus any error the
	// caller already consumed). A Close-triggered PeerServer.Serve
	// returns nil, which passes the collection check like ErrServerClosed.
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
		if l2Srv != nil {
			_ = l2Srv.Close()
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
		if cfg.cacheDump != "" {
			if err := dumpCache(srv, cfg.cacheDump); err != nil {
				return err
			}
		}
		st := srv.Stats()
		fmt.Printf("probconsd: done; served analyze=%d sweep=%d tables=%d, cache %d/%d (hits %d, coalesced %d)\n",
			st.Requests.Analyze, st.Requests.Sweep, st.Requests.Tables,
			st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Coalesced)
		return nil
	}
}

// newPeerClient validates the fleet flags and builds the L2 router, or
// nil when no fleet is configured.
func newPeerClient(cfg config) (*qcache.PeerClient, error) {
	if cfg.peers == "" {
		if cfg.l2Self != "" {
			return nil, fmt.Errorf("-l2-self requires -peers")
		}
		return nil, nil
	}
	if cfg.l2Addr == "" {
		return nil, fmt.Errorf("-peers requires -l2-addr (every fleet member must serve its cache)")
	}
	self := cfg.l2Self
	if self == "" {
		self = cfg.l2Addr
	}
	var peers []string
	for _, p := range strings.Split(cfg.peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-peers has an empty entry")
		}
		peers = append(peers, p)
	}
	return qcache.NewPeerClient(self, peers, qcache.PeerOptions{})
}

// peerCount renders the fleet size for the boot banner (0 = serving the
// cache without routing to peers).
func peerCount(pc *qcache.PeerClient) int {
	if pc == nil {
		return 0
	}
	return len(pc.Peers())
}

// warmCache loads the analyze cache from path. A missing file is a
// normal first boot; a corrupted file keeps whatever loaded before the
// corruption — the warm cache is best-effort, like the tier it feeds.
func warmCache(srv *service.Server, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Printf("probconsd: cache warm file %s not found, starting cold\n", path)
		return nil
	}
	if err != nil {
		return fmt.Errorf("cache load: %w", err)
	}
	defer f.Close()
	n, err := srv.LoadCache(f)
	if err != nil {
		fmt.Printf("probconsd: cache warm stopped after %d entries: %v\n", n, err)
		return nil
	}
	fmt.Printf("probconsd: warmed %d cache entries from %s\n", n, path)
	return nil
}

// dumpCache writes the analyze cache to path via a temp file + rename,
// so a crash mid-dump never leaves a truncated warm file behind.
func dumpCache(srv *service.Server, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cache dump: %w", err)
	}
	n, err := srv.DumpCache(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cache dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cache dump: %w", err)
	}
	fmt.Printf("probconsd: dumped %d cache entries to %s\n", n, path)
	return nil
}
