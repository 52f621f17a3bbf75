package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout that holds
// cmd/probconsd, so the benchmark runs from the root (bench/run.sh) or from
// bench/ (go run .) alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "probconsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/probconsd above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/probconsd into the checkout's .bench_build and
// returns the binary's path and how long the build took.
func buildDaemon(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "probconsd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/probconsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build probconsd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running probconsd with default flags on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *os.File
	exec   time.Time // when the process was started
	once   sync.Once // stop is safe to call again
}

// startDaemon boots bin on a free loopback port with stderr (the access
// log) going to a file under tmp, and returns once /healthz answers 200.
func startDaemon(bin, tmp string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(tmp, "probconsd.stderr"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = logf
	// The daemon must never outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, stderr: logf, exec: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start probconsd: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do("GET", "/healthz", nil)
			c.close()
			if err == nil && status == 200 {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("probconsd on %s did not answer /healthz within 10s", addr)
}

// stop drains the daemon with SIGTERM, falling back to SIGKILL, and waits
// until the process has ended.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = d.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
		d.stderr.Close()
	})
}

// scrape fetches and parses GET /metrics, and reports how long it took.
func (d *daemon) scrape() (promSnapshot, time.Duration, error) {
	c, err := dial(d.addr)
	if err != nil {
		return nil, 0, err
	}
	defer c.close()
	start := time.Now()
	status, body, err := c.do("GET", "/metrics", nil)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if status != 200 {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	snap, err := parseProm(body)
	return snap, took, err
}

// userHZ is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it has been 100 on every Linux architecture Go supports.
const userHZ = 100

// cpuSeconds reads the daemon's utime+stime (all threads) from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: short line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad cpu fields in %q", raw)
	}
	return (utime + stime) / userHZ, nil
}

// rssPeakMB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc status has no VmHWM")
}
