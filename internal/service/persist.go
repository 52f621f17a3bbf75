package service

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/qcache"
)

// Cache persistence: the analyze L1 serialized in qcache's framed wire
// format, so a -cache-dump file written on drain re-warms the cache on
// the next boot (-cache-load) and restarts don't start cold. Values are
// compact JSON with Cached/Debug stripped, so a re-warmed entry serves
// byte-identical responses to the pre-restart cache.

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
// the number of entries loaded. Each entry is checked before it is
// inserted: its value must decode as an analyze response whose
// fingerprint equals the entry's key. A corrupted frame or a failed check
// stops the load with an error; everything loaded before it stays.
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

// marshalCached renders a cached analyze response for a dump file:
// Cached and Debug are per-request decorations, never part of the stored
// value.
func marshalCached(resp AnalyzeResponse) ([]byte, error) {
	resp.Cached = false
	resp.Debug = nil
	return json.Marshal(resp)
}

// unmarshalCached is marshalCached's inverse for a dump entry read under
// key, as the cache entry to insert. The value must decode and carry key
// as its fingerprint, so nothing can be planted under a foreign key; it
// is not re-verified against the engine.
func unmarshalCached(key string, val []byte) (*analyzeEntry, error) {
	e := new(analyzeEntry)
	if err := json.Unmarshal(val, &e.resp); err != nil {
		return nil, err
	}
	if e.resp.Fingerprint != key {
		return nil, fmt.Errorf("key %s does not match value fingerprint %s", key, e.resp.Fingerprint)
	}
	e.resp.Cached = false
	e.resp.Debug = nil
	return e, nil
}
