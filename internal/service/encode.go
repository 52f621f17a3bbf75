package service

import (
	"bytes"
	"encoding/json"
	"sync"
)

// This file renders every response body: the analyze miss, the stored hit
// body, optimize, tail, batch, tables, traces, stats and errors alike.
// encoding/json encodes the value compactly into pooled scratch, and one
// pass (appendIndent) lays it out exactly as json.Indent with a two-space
// indent would: the wire format is encoding/json's indented form, without
// json.Encoder.SetIndent's per-call indent buffer and second scanner.
// FuzzIndentMatchesEncodingJSON and the referenceBody tests hold the two
// to the same bytes.

// compactEncoder is encodeJSON's pooled scratch: the compact encoding and
// the json.Encoder that writes it, kept together so neither is allocated
// per response.
type compactEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var compactPool = sync.Pool{New: func() any {
	c := new(compactEncoder)
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

// encodeJSON renders v into buf the way every response body is rendered:
// two-space indent, one trailing newline. On an error nothing is written.
func encodeJSON(buf *bytes.Buffer, v any) error {
	c := compactPool.Get().(*compactEncoder)
	defer func() {
		if c.buf.Cap() <= maxPooledBody {
			compactPool.Put(c)
		}
	}()
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		return err
	}
	src := c.buf.Bytes()
	buf.Grow(len(src))
	buf.Write(appendIndent(buf.AvailableBuffer(), src))
	return nil
}

// newlineIndent is a newline and the indent of 16 levels: appendNewline
// copies a prefix of it.
const newlineIndent = "\n                                "

// appendIndent appends src, encoding/json's compact output, laid out as
// json.Indent(dst, src, "", "  ") lays it out: a newline and two spaces per
// level before each member and element and before a closing bracket, ": "
// after each key, empty {} and [] kept inline, and everything else —
// strings, numbers, literals, the Encoder's trailing newline — copied
// through. Compact input has no whitespace outside strings, so the pass
// tracks only depth and where strings end.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	open := false // just past '{' or '[': the newline waits for a member
	for i := 0; i < len(src); {
		c := src[i]
		if open {
			open = false
			if c == '}' || c == ']' {
				dst = append(dst, c)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i+1)
			dst = append(dst, src[i:end]...)
			i = end
		case '{', '[':
			open = true
			dst = append(dst, c)
			i++
		case ',':
			dst = appendNewline(append(dst, ','), depth)
			i++
		case ':':
			dst = append(dst, ':', ' ')
			i++
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
			i++
		default: // a number or a literal: copied up to the next structural byte
			end := i + 1
			for end < len(src) && !structural[src[end]] {
				end++
			}
			dst = append(dst, src[i:end]...)
			i = end
		}
	}
	return dst
}

// structural marks the bytes that end a number or a literal in compact
// JSON.
var structural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true, ',': true, ':': true}

// stringEnd returns the index just past the closing quote of the string
// whose contents start at src[i], or len(src) if it is unterminated.
func stringEnd(src []byte, i int) int {
	for {
		q := bytes.IndexByte(src[i:], '"')
		if q < 0 {
			return len(src)
		}
		i += q + 1
		// The quote closes the string unless an odd run of backslashes
		// escapes it.
		bs := 0
		for j := i - 2; src[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return i
		}
	}
}

// appendNewline appends a newline and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	n := 1 + 2*depth
	if n <= len(newlineIndent) {
		return append(dst, newlineIndent[:n]...)
	}
	dst = append(dst, newlineIndent...)
	for n -= len(newlineIndent); n > 0; n -= len(newlineIndent) - 1 {
		dst = append(dst, newlineIndent[1:1+min(n, len(newlineIndent)-1)]...)
	}
	return dst
}
