package service

import (
	"fmt"
	"io"

	"repro/internal/qcache"
)

// Cache persistence: the analyze L1 serialized in the L2 wire format, so
// a -cache-dump file written on drain re-warms the cache on the next
// boot (-cache-load) and restarts don't start cold. Values are the same
// compact JSON the peer tier exchanges — Cached/Debug stripped — so a
// re-warmed entry serves byte-identical responses to the pre-restart
// cache.

// DumpCache writes every analyze-cache entry to w: a wire hello followed
// by dump-entry frames. It returns the number of entries written.
// Entries that exceed the wire bounds are skipped, not fatal.
func (s *Server) DumpCache(w io.Writer) (int, error) {
	if err := qcache.WriteHello(w); err != nil {
		return 0, err
	}
	n := 0
	var werr error
	s.cache.Range(func(key string, e *analyzeEntry) bool {
		b, err := marshalCached(e.resp)
		if err != nil || len(b) > qcache.MaxEntryBytes || len(key) > qcache.MaxKeyLen {
			return true
		}
		if err := qcache.WriteDumpEntry(w, key, b); err != nil {
			werr = err
			return false
		}
		n++
		return true
	})
	return n, werr
}

// LoadCache warms the analyze cache from a DumpCache stream, returning
// the number of entries loaded. Entries are validated like L2 puts: the
// value must decode and its fingerprint must match its key. A corrupted
// frame stops the load with an error; everything loaded before it stays.
func (s *Server) LoadCache(r io.Reader) (int, error) {
	if err := qcache.ReadHello(r); err != nil {
		return 0, err
	}
	n := 0
	for {
		key, val, err := qcache.ReadDumpEntry(r)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		e, err := unmarshalCached(key, val)
		if err != nil {
			return n, fmt.Errorf("cache entry %d (%s): %w", n, key, err)
		}
		s.cache.Put(key, e)
		n++
	}
}
