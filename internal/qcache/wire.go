package qcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The PQL2 wire: a compact length-prefixed binary protocol between a
// PeerClient and a PeerServer, which exchange cached responses without
// JSON framing overhead. Its only reader and writer outside this
// package's tests is the benchmark module's loopback peer probe. Every
// frame is bounds-checked on read: a truncated or corrupted stream yields
// an error, never a panic or an unbounded allocation.
//
// Connection handshake (both directions, once per connection):
//
//	[magic "PQL2"][version u8]
//
// Request frame (client -> owner peer):
//
//	[op u8][key len u16 BE][key][value len u32 BE][value]
//
// Response frame (owner peer -> client):
//
//	[status u8][value len u32 BE][value]

// WireVersion is the L2 protocol version. Peers with mismatched versions
// refuse each other at the hello, so a mixed-version fleet degrades to
// per-process L1 caching instead of exchanging misread frames.
const WireVersion = 1

// wireMagic opens every connection.
var wireMagic = [4]byte{'P', 'Q', 'L', '2'}

// L2 operations. Op 2 was a PUT that nothing sent; it is now an unknown op,
// so a peer that still sends it gets its connection closed.
const (
	// OpGet asks the owner for its cached value for a key (no compute).
	OpGet byte = 1
	// OpExec asks the owner to answer the request carried in the value,
	// computing it under the owner's own singleflight on a miss. This is
	// what preserves "exactly one engine call" fleet-wide: every peer's
	// miss for a key lands in the one owner's flight for that key.
	OpExec byte = 3
)

// L2 response statuses.
const (
	StatusOK    byte = 0
	StatusMiss  byte = 1
	StatusError byte = 2
)

// Wire bounds. Keys are cache fingerprints (hex SHA-256, well under 128
// bytes); values are serialized responses, bounded like HTTP bodies.
const (
	MaxKeyLen     = 128
	MaxEntryBytes = 1 << 20
)

// ErrWire marks a malformed or out-of-bounds L2 frame. All decode errors
// wrap it, so callers can distinguish protocol corruption from plain IO
// errors with errors.Is.
var ErrWire = errors.New("qcache: malformed l2 frame")

func wireErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// WriteHello writes the protocol preamble.
func WriteHello(w io.Writer) error {
	var b [5]byte
	copy(b[:4], wireMagic[:])
	b[4] = WireVersion
	_, err := w.Write(b[:])
	return err
}

// ReadHello consumes and validates the protocol preamble.
func ReadHello(r io.Reader) error {
	var b [5]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return wireErrf("short hello: %v", err)
	}
	if [4]byte(b[:4]) != wireMagic {
		return wireErrf("bad magic %q", b[:4])
	}
	if b[4] != WireVersion {
		return wireErrf("protocol version %d, want %d", b[4], WireVersion)
	}
	return nil
}

// checkKey bounds a key for the wire.
func checkKey(key string) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return wireErrf("key length %d outside [1, %d]", len(key), MaxKeyLen)
	}
	return nil
}

// checkVal bounds a value for the wire.
func checkVal(val []byte) error {
	if len(val) > MaxEntryBytes {
		return wireErrf("value length %d exceeds %d", len(val), MaxEntryBytes)
	}
	return nil
}

// appendKV appends [key len u16][key][value len u32][value] to buf.
func appendKV(buf []byte, key string, val []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	return append(buf, val...)
}

// readKV reads the [key len][key][value len][value] tail of a request
// frame.
func readKV(r io.Reader) (key string, val []byte, err error) {
	var kl [2]byte
	if _, err := io.ReadFull(r, kl[:]); err != nil {
		return "", nil, wireErrf("short key length: %v", err)
	}
	klen := int(binary.BigEndian.Uint16(kl[:]))
	if klen == 0 || klen > MaxKeyLen {
		return "", nil, wireErrf("key length %d outside [1, %d]", klen, MaxKeyLen)
	}
	kb := make([]byte, klen)
	if _, err := io.ReadFull(r, kb); err != nil {
		return "", nil, wireErrf("short key: %v", err)
	}
	var vl [4]byte
	if _, err := io.ReadFull(r, vl[:]); err != nil {
		return "", nil, wireErrf("short value length: %v", err)
	}
	vlen := int(binary.BigEndian.Uint32(vl[:]))
	if vlen > MaxEntryBytes {
		return "", nil, wireErrf("value length %d exceeds %d", vlen, MaxEntryBytes)
	}
	vb := make([]byte, vlen)
	if _, err := io.ReadFull(r, vb); err != nil {
		return "", nil, wireErrf("short value: %v", err)
	}
	return string(kb), vb, nil
}

// WriteRequest writes one request frame in a single Write call.
func WriteRequest(w io.Writer, op byte, key string, val []byte) error {
	switch op {
	case OpGet, OpExec:
	default:
		return wireErrf("unknown op %d", op)
	}
	if err := checkKey(key); err != nil {
		return err
	}
	if err := checkVal(val); err != nil {
		return err
	}
	buf := make([]byte, 0, 1+2+len(key)+4+len(val))
	buf = append(buf, op)
	buf = appendKV(buf, key, val)
	_, err := w.Write(buf)
	return err
}

// ReadRequest reads one request frame. A clean EOF before the first byte
// returns io.EOF so connection loops can distinguish "peer hung up" from
// a truncated frame.
func ReadRequest(r io.Reader) (op byte, key string, val []byte, err error) {
	var ob [1]byte
	if _, err := io.ReadFull(r, ob[:]); err != nil {
		if err == io.EOF {
			return 0, "", nil, io.EOF
		}
		return 0, "", nil, wireErrf("short op: %v", err)
	}
	op = ob[0]
	switch op {
	case OpGet, OpExec:
	default:
		return 0, "", nil, wireErrf("unknown op %d", op)
	}
	key, val, err = readKV(r)
	return op, key, val, err
}

// WriteResponse writes one response frame in a single Write call.
func WriteResponse(w io.Writer, status byte, val []byte) error {
	switch status {
	case StatusOK, StatusMiss, StatusError:
	default:
		return wireErrf("unknown status %d", status)
	}
	if err := checkVal(val); err != nil {
		return err
	}
	buf := make([]byte, 0, 1+4+len(val))
	buf = append(buf, status)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	_, err := w.Write(buf)
	return err
}

// ReadResponse reads one response frame.
func ReadResponse(r io.Reader) (status byte, val []byte, err error) {
	var sb [1]byte
	if _, err := io.ReadFull(r, sb[:]); err != nil {
		return 0, nil, wireErrf("short status: %v", err)
	}
	status = sb[0]
	switch status {
	case StatusOK, StatusMiss, StatusError:
	default:
		return 0, nil, wireErrf("unknown status %d", status)
	}
	var vl [4]byte
	if _, err := io.ReadFull(r, vl[:]); err != nil {
		return 0, nil, wireErrf("short value length: %v", err)
	}
	vlen := int(binary.BigEndian.Uint32(vl[:]))
	if vlen > MaxEntryBytes {
		return 0, nil, wireErrf("value length %d exceeds %d", vlen, MaxEntryBytes)
	}
	vb := make([]byte, vlen)
	if _, err := io.ReadFull(r, vb); err != nil {
		return 0, nil, wireErrf("short value: %v", err)
	}
	return status, vb, nil
}
