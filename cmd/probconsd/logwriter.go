package main

import (
	"bufio"
	"io"
	"sync"
	"time"
)

// The access log is one line per request, and one write(2) per line — taken
// under slog's handler mutex — was a tenth of the daemon's CPU on cache-hit
// traffic. Lines collect in memory instead and reach the file once a
// second, when the buffer fills, and on Close. Both sizes are constants:
// nobody has needed other values.
const (
	logBufferBytes   = 64 << 10
	logFlushInterval = time.Second
)

// logWriter is the buffered destination cmd/probconsd gives slog. Whole
// lines go in under one mutex, so they come out whole and in order; a
// flusher goroutine owned by the value bounds how far the file lags.
// After Close, writes go straight through: a handler that outlives the
// drain timeout still gets its line out.
type logWriter struct {
	mu     sync.Mutex
	w      io.Writer
	buf    *bufio.Writer
	closed bool

	stop chan struct{} // closed by Close: the flusher returns
	done chan struct{} // closed by the flusher on its way out
	once sync.Once
}

func newLogWriter(w io.Writer) *logWriter {
	lw := &logWriter{
		w:    w,
		buf:  bufio.NewWriterSize(w, logBufferBytes),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go lw.flushLoop()
	return lw
}

func (lw *logWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return lw.w.Write(p)
	}
	return lw.buf.Write(p)
}

func (lw *logWriter) flushLoop() {
	defer close(lw.done)
	t := time.NewTicker(logFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			lw.mu.Lock()
			_ = lw.flushLocked() // what failed is dropped; Close reports the last flush
			lw.mu.Unlock()
		case <-lw.stop:
			return
		}
	}
}

func (lw *logWriter) flushLocked() error {
	err := lw.buf.Flush()
	if err != nil {
		// bufio keeps its first error forever. Drop what could not be
		// written so a full disk that clears does not end logging for good.
		lw.buf.Reset(lw.w)
	}
	return err
}

// Close stops the flusher, waits until it has exited, and flushes what is
// buffered. Calling it again only repeats the (then empty) flush.
func (lw *logWriter) Close() error {
	lw.once.Do(func() { close(lw.stop) })
	<-lw.done
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.closed = true
	return lw.flushLocked()
}
