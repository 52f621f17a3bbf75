package qcache

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestWireHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestWireHelloRejectsBadPreamble(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       {'P', 'Q'},
		"bad magic":   {'X', 'Q', 'L', '2', WireVersion},
		"bad version": {'P', 'Q', 'L', '2', WireVersion + 1},
	}
	for name, b := range cases {
		if err := ReadHello(bytes.NewReader(b)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", name, err)
		}
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	cases := []struct {
		op  byte
		key string
		val []byte
	}{
		{OpGet, "abc123", nil},
		{OpGet, strings.Repeat("f", MaxKeyLen), []byte(`{"safe":1}`)},
		{OpExec, "fp", bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, tc.op, tc.key, tc.val); err != nil {
			t.Fatalf("write op %d: %v", tc.op, err)
		}
		op, key, val, err := ReadRequest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read op %d: %v", tc.op, err)
		}
		if op != tc.op || key != tc.key || !bytes.Equal(val, tc.val) {
			t.Fatalf("round trip mismatch: op %d key %q val %d bytes", op, key, len(val))
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for _, status := range []byte{StatusOK, StatusMiss, StatusError} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, status, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		got, val, err := ReadResponse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got != status || string(val) != "payload" {
			t.Fatalf("round trip mismatch: status %d val %q", got, val)
		}
	}
}

func TestWireRejectsOutOfBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpGet, "", nil); !errors.Is(err, ErrWire) {
		t.Errorf("empty key: err = %v, want ErrWire", err)
	}
	if err := WriteRequest(&buf, OpGet, strings.Repeat("k", MaxKeyLen+1), nil); !errors.Is(err, ErrWire) {
		t.Errorf("oversized key: err = %v, want ErrWire", err)
	}
	if err := WriteRequest(&buf, OpGet, "k", make([]byte, MaxEntryBytes+1)); !errors.Is(err, ErrWire) {
		t.Errorf("oversized value: err = %v, want ErrWire", err)
	}
	if err := WriteRequest(&buf, 99, "k", nil); !errors.Is(err, ErrWire) {
		t.Errorf("unknown op: err = %v, want ErrWire", err)
	}
	if err := WriteResponse(&buf, 99, nil); !errors.Is(err, ErrWire) {
		t.Errorf("unknown status: err = %v, want ErrWire", err)
	}

	// An oversized declared value length must be rejected before any
	// allocation-by-length, not after reading the stream.
	evil := []byte{OpGet, 0, 1, 'k', 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := ReadRequest(bytes.NewReader(evil)); !errors.Is(err, ErrWire) {
		t.Errorf("oversized declared value: err = %v, want ErrWire", err)
	}
}

func TestWireTruncationErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpExec, "some-key", []byte("some-value")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail with ErrWire (or io.EOF at length 0),
	// never panic or succeed.
	for n := 0; n < len(full); n++ {
		_, _, _, err := ReadRequest(bytes.NewReader(full[:n]))
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrWire) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrWire", n, len(full), err)
		}
	}
}

// FuzzL2Wire feeds arbitrary bytes through every decoder: decoding must
// never panic, a request decodes only as GET or EXEC, and anything that
// decodes must re-encode and re-decode to the same frame.
func FuzzL2Wire(f *testing.F) {
	seed := func(build func(w io.Writer) error) {
		var buf bytes.Buffer
		if err := build(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(WriteHello)
	seed(func(w io.Writer) error { return WriteRequest(w, OpGet, "fingerprint-hex", nil) })
	seed(func(w io.Writer) error { return WriteRequest(w, OpExec, "fp", []byte(`{"model":{}}`)) })
	seed(func(w io.Writer) error { return WriteResponse(w, StatusOK, []byte(`{"safe":0.5}`)) })
	seed(func(w io.Writer) error { return WriteResponse(w, StatusMiss, nil) })
	seed(func(w io.Writer) error { return WriteResponse(w, StatusError, []byte("compute failed")) })
	f.Add([]byte{OpExec, 0xFF, 0xFF})
	f.Add([]byte{2, 0, 2, 'f', 'p', 0, 0, 0, 1, 'v'}) // the retired PUT: refused
	f.Fuzz(func(t *testing.T, data []byte) {
		if op, key, val, err := ReadRequest(bytes.NewReader(data)); err == nil {
			if op != OpGet && op != OpExec {
				t.Fatalf("decoded request op %d, want GET or EXEC", op)
			}
			var buf bytes.Buffer
			if err := WriteRequest(&buf, op, key, val); err != nil {
				t.Fatalf("re-encode decoded request: %v", err)
			}
			op2, key2, val2, err := ReadRequest(bytes.NewReader(buf.Bytes()))
			if err != nil || op2 != op || key2 != key || !bytes.Equal(val2, val) {
				t.Fatalf("request round trip diverged: %v", err)
			}
		}
		if status, val, err := ReadResponse(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, status, val); err != nil {
				t.Fatalf("re-encode decoded response: %v", err)
			}
			status2, val2, err := ReadResponse(bytes.NewReader(buf.Bytes()))
			if err != nil || status2 != status || !bytes.Equal(val2, val) {
				t.Fatalf("response round trip diverged: %v", err)
			}
		}
		_ = ReadHello(bytes.NewReader(data))
	})
}
