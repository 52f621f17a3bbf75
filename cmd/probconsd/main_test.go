package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// testConfig is a valid baseline config on ephemeral ports.
func testConfig() config {
	return config{
		addr:        "127.0.0.1:0",
		cacheSize:   16,
		shards:      2,
		workers:     2,
		drain:       2 * time.Second,
		logFormat:   "text",
		traceBuffer: 64,
		traceSample: 8,
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config)
	}{
		{"cache capacity 0", func(c *config) { c.cacheSize = 0 }},
		{"shard count 0", func(c *config) { c.shards = 0 }},
		{"worker count 0", func(c *config) { c.workers = 0 }},
		{"unlistenable address", func(c *config) { c.addr = "not-an-address" }},
		{"unlistenable metrics address", func(c *config) { c.metricsAddr = "not-an-address" }},
		{"unknown log format", func(c *config) { c.logFormat = "xml" }},
		{"trace buffer 1", func(c *config) { c.traceBuffer = 1 }},
		{"negative trace slow threshold", func(c *config) { c.traceSlowMS = -1 }},
		{"negative trace sample rate", func(c *config) { c.traceSample = -1 }},
		{"peers without l2 listener", func(c *config) { c.peers = "127.0.0.1:1" }},
		{"l2 self without peers", func(c *config) { c.l2Self = "127.0.0.1:1" }},
		{"empty peer entry", func(c *config) {
			c.l2Addr = "127.0.0.1:0"
			c.peers = "127.0.0.1:0,,127.0.0.1:1"
		}},
		{"self not in peer list", func(c *config) {
			c.l2Addr = "127.0.0.1:0"
			c.l2Self = "10.0.0.9:9085"
			c.peers = "127.0.0.1:0,127.0.0.1:1"
		}},
		{"unlistenable l2 address", func(c *config) {
			c.l2Addr = "not-an-address"
			c.peers = "not-an-address,127.0.0.1:1"
		}},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		if err := run(cfg); err == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
		// Cases that fail after the logger exists (a listener that cannot
		// bind) must not leave its flusher behind.
		if !waitFor(func() bool { return !flusherRunning() }) {
			t.Fatalf("%s: run returned with the access log's flusher still running", tc.name)
		}
	}
}

// waitFor polls cond until it holds, for at most three seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// flusherRunning reports whether any logWriter's flusher goroutine exists.
func flusherRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*logWriter).flushLoop"))
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Errorf("addr %q handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout %v IdleTimeout %v, want 10s and 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	// A deadline on the body or the response would cut a long sweep.
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v WriteTimeout %v, want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestLogWriterKeepsLinesWhole: concurrent writers, then Close — every
// line is in the file, whole and on its own.
func TestLogWriterKeepsLinesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lw := newLogWriter(f)
	const writers, lines = 16, 500 // ~640 KB: the 64 KiB buffer fills and spills many times
	pad := strings.Repeat("x", 64)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				if _, err := fmt.Fprintf(lw, "writer=%d line=%d %s\n", g, i, pad); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ { // a second Close is harmless
		if err := lw.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, writers)
	got := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, line := range got {
		var g, i int
		var tail string
		if n, _ := fmt.Sscanf(line, "writer=%d line=%d %s", &g, &i, &tail); n != 3 || tail != pad || g < 0 || g >= writers || i != next[g] {
			t.Fatalf("torn or reordered line %q", line)
		}
		next[g]++
	}
	if len(got) != writers*lines {
		t.Fatalf("%d lines in the file, want %d", len(got), writers*lines)
	}

	// After Close nothing flushes on a timer, so a late line goes through.
	fmt.Fprintln(lw, "late")
	if data, _ := os.ReadFile(path); !strings.HasSuffix(string(data), "\nlate\n") {
		t.Error("a line written after Close did not reach the file")
	}
}

// TestLogWriterFlushesOnItsOwn: a line reaches the file without Close,
// within the flush interval (plus scheduling slack).
func TestLogWriterFlushesOnItsOwn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lw := newLogWriter(f)
	defer lw.Close()
	fmt.Fprintln(lw, "one line")
	if !waitFor(func() bool { data, _ := os.ReadFile(path); return string(data) == "one line\n" }) {
		t.Fatal("the line did not reach the file within 3 s of being written")
	}
}

// drainAndCheck signals the daemon and verifies a clean exit.
func drainAndCheck(t *testing.T, errCh chan error) {
	t.Helper()
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	default:
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	errCh := make(chan error, 1)
	go func() { errCh <- run(testConfig()) }()
	drainAndCheck(t, errCh)
}

// TestRunGracefulShutdownWithOpsListener drains a daemon running the
// separate -metrics-addr ops listener (and the json log format).
func TestRunGracefulShutdownWithOpsListener(t *testing.T) {
	cfg := testConfig()
	cfg.metricsAddr = "127.0.0.1:0"
	cfg.logFormat = "json"
	errCh := make(chan error, 1)
	go func() { errCh <- run(cfg) }()
	drainAndCheck(t, errCh)
}

// TestRunGracefulShutdownWithFleetTier drains a daemon running the L2
// peer listener and cache persistence: the drain must write the dump
// file, and a rerun must warm from it (and tolerate a missing file).
func TestRunGracefulShutdownWithFleetTier(t *testing.T) {
	dump := t.TempDir() + "/cache.l2"
	cfg := testConfig()
	cfg.l2Addr = "127.0.0.1:0"
	cfg.peers = "127.0.0.1:0,127.0.0.1:1"
	cfg.cacheDump = dump
	cfg.cacheLoad = dump // first boot: missing file is a cold start
	errCh := make(chan error, 1)
	go func() { errCh <- run(cfg) }()
	drainAndCheck(t, errCh)
	if _, err := os.Stat(dump); err != nil {
		t.Fatalf("drain did not write the cache dump: %v", err)
	}

	// Second boot warms from the dump written above.
	errCh = make(chan error, 1)
	go func() { errCh <- run(cfg) }()
	drainAndCheck(t, errCh)
}
