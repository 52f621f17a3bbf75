package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/inputcheck"
	"repro/internal/obs"
)

// This file is the one request decoder: every POST body is read in full,
// then walked once by a hand-written scanner that fills the wire types
// directly. It accepts exactly the bodies strict encoding/json accepted
// before it (decodeReference in decode_test.go, the differential oracle
// FuzzDecodeMatchesReference runs it against) and fills the same values,
// with one deliberate tightening: a key repeated within one object is
// refused, where encoding/json silently merged the two values.
//
// The grammar, as docs/API.md states it: unknown fields are refused, so
// the scanner never has a value to skip; null means "absent" for every
// field and for the whole body; keys match exactly first and then
// ignoring case; int fields refuse fractions and exponents; nothing but
// whitespace may follow the value.

// Key tables, one per wire type, in struct-field order: a field's index
// here is its case in the type's decode method and its bit in the walk's
// seen-mask. TestDecoderCoversEveryWireField pins each table to the json
// tags of its type, so a field cannot be added without a decoder case.
var (
	modelSpecKeys  = []string{"protocol", "n", "q_per", "q_vc", "q_eq", "q_vct"}
	nodeSpecKeys   = []string{"name", "p_crash", "p_byz", "domain"}
	domainSpecKeys = []string{"name", "shock", "crash_mult", "byz_mult"}
	curveSpecKeys  = []string{"floor_frac", "scale"}

	// queryKeys is the block analyze, optimize and tail requests share and
	// queryField decodes; each of the three tables starts with it.
	queryKeys           = []string{"model", "fleet", "p", "domains"}
	analyzeRequestKeys  = append(queryKeys[:4:4], "debug")
	optimizeRequestKeys = append(queryKeys[:4:4], "budget", "max_spend", "curve", "target", "iterations", "tolerance")
	tailRequestKeys     = append(queryKeys[:4:4], "event", "method", "max_work", "samples", "seed")

	sweepRequestKeys = []string{"protocol", "ns", "ps", "domains"}
	batchItemKeys    = []string{"analyze", "sweep", "optimize", "tail"}
	batchRequestKeys = []string{"items"}
)

// maxPooledBody caps the body buffers the pools keep (bodyPool's and each
// POST endpoint's entries): one that had to grow past it for a large
// request is dropped, so an idle pool slot never pins megabytes. 64 KiB
// holds an analyze body of about 700 nodes.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBody takes an empty buffer from the pool: request bodies are read
// into these and response bodies encoded into them.
func getBody() *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// readBody counts the request and reads its size-bounded body into buf:
// the front of every POST endpoint. A body over limit is a 413; every
// other failure is a 400.
func readBody(count *obs.Counter, limit int64, w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	count.Inc()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return clientError{fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit), http.StatusRequestEntityTooLarge}
	case err != nil:
		return badRequest(fmt.Errorf("reading request body: %w", err))
	}
	return nil
}

// readRequest is readBody and decodeRequest into req, a target that is
// not pooled (the sweep stream's), recorded together as the trace's
// decode span.
func readRequest(count *obs.Counter, limit int64, w http.ResponseWriter, r *http.Request, tr *obs.Trace, req any) error {
	start := time.Now()
	buf := getBody()
	defer putBody(buf)
	err := readBody(count, limit, w, r, buf)
	if err == nil {
		err = decodeRequest(buf.Bytes(), req)
	}
	tr.Since("decode", start)
	return err
}

// decodeRequest decodes one complete body into v, a pointer to one of the
// five request types. Strings in the result are copies: nothing in v
// refers to data once it returns. v may hold an earlier request: every
// field is overwritten, and one the body omits or spells null reads zero,
// exactly as in a fresh target — but slices keep their arrays, pointers
// their pointees and strings their value where the body repeats it, so a
// pooled target (handlePost's) decodes a request like its predecessor
// without allocating for it again.
func decodeRequest(data []byte, v any) error {
	d := decoder{data: data, presize: len(data) / presizeBytes}
	var err *decodeError
	if d.peek(); d.pos == len(data) {
		err = d.fail(d.pos, "empty body")
	} else {
		switch v := v.(type) {
		case *AnalyzeRequest:
			err = d.analyzeRequest(v)
		case *SweepRequest:
			err = d.sweepRequest(v)
		case *OptimizeRequest:
			err = d.optimizeRequest(v)
		case *TailRequest:
			err = d.tailRequest(v)
		case *BatchRequest:
			err = d.batchRequest(v)
		default:
			panic(fmt.Sprintf("service: no decoder for %T", v))
		}
	}
	// A concatenated second request must not ride along silently.
	if d.peek(); err == nil && d.pos < len(data) {
		err = d.fail(d.pos, "trailing data after the request object")
	}
	if err != nil {
		return badRequest(fmt.Errorf("bad JSON body: %w", err))
	}
	return nil
}

// decodeError is one refusal: what is wrong, at which byte of the body,
// and under which field path ("" for the body's root).
type decodeError struct {
	path string
	msg  string
	off  int
}

func (e *decodeError) Error() string {
	if e.path == "" {
		return fmt.Sprintf("%s (offset %d)", e.msg, e.off)
	}
	return fmt.Sprintf("%s: %s (offset %d)", e.path, e.msg, e.off)
}

// in prefixes the path with the field the error came up through. Paths
// are built on the way out, so a body that decodes pays nothing for them.
func (e *decodeError) in(field string) *decodeError {
	switch {
	case e.path == "":
		e.path = field
	case e.path[0] == '[':
		e.path = field + e.path
	default:
		e.path = field + "." + e.path
	}
	return e
}

// at prefixes the path with an array index.
func (e *decodeError) at(i int) *decodeError { return e.in("[" + strconv.Itoa(i) + "]") }

// decoder is the scanner: the body and the offset of the next unread byte.
type decoder struct {
	data []byte
	pos  int
	// presize is how many slice elements decodeSlice may still allocate on
	// a hint, ahead of reading them: one per presizeBytes of body, all
	// slices together, so that what a body makes the decoder allocate stays
	// a small multiple of its length — also for a batch of 190 000 items
	// that each announce "n":1024 over an empty fleet.
	presize int
}

// presizeBytes: real nodes take 50 bytes and more, so real fleets are sized
// in full, and hints cost at most 48/16 = 3 bytes per body byte.
const presizeBytes = 16

func (d *decoder) fail(off int, format string, args ...any) *decodeError {
	return &decodeError{msg: fmt.Sprintf(format, args...), off: off}
}

// syntax refuses the byte at pos (or the body's end) as malformed JSON.
func (d *decoder) syntax(context string) *decodeError {
	if d.pos >= len(d.data) {
		return d.fail(d.pos, "unexpected end of body %s", context)
	}
	return d.fail(d.pos, "invalid character %s %s", strconv.QuoteRuneToASCII(rune(d.data[d.pos])), context)
}

// wrongType refuses the value at pos, which is not null and not what the
// field wants.
func (d *decoder) wrongType(want string) *decodeError {
	var got string
	switch c := d.peek(); {
	case c == '"':
		got = "a string"
	case c == '{':
		got = "an object"
	case c == '[':
		got = "an array"
	case c == 't' || c == 'f':
		got = "a boolean"
	case c == '-' || isDigit(c):
		got = "a number"
	default:
		return d.syntax("looking for " + want)
	}
	return d.fail(d.pos, "want %s, got %s", want, got)
}

// peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the body — a NUL byte is valid nowhere outside a string,
// so the two need telling apart only when an error is worded.
func (d *decoder) peek() byte {
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		d.pos++
	}
	return 0
}

// token consumes tok if the body spells it at pos.
func (d *decoder) token(tok string) bool {
	if end := d.pos + len(tok); end <= len(d.data) && string(d.data[d.pos:end]) == tok {
		d.pos = end
		return true
	}
	return false
}

// literal consumes lit, whose first byte the caller has seen at pos.
func (d *decoder) literal(lit string) *decodeError {
	if d.token(lit) {
		return nil
	}
	for i := 0; d.pos < len(d.data) && d.data[d.pos] == lit[i]; i++ {
		d.pos++
	}
	return d.syntax("in literal " + lit)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number, sets n to its decimal value (float.go)
// and returns its text. The whole grammar is checked here — no leading
// zeros, digits on both sides of the point and after the exponent —
// because strconv alone would also take 0x1p-2, 1_0, Inf and NaN.
func (d *decoder) number(n *decimal) ([]byte, *decodeError) {
	data, start, i := d.data, d.pos, d.pos
	*n = decimal{}
	if data[i] == '-' {
		n.neg = true
		i++
	}
	// Up to three runs of digits; the number is malformed once one is empty.
	end := i + 1 // a leading 0 stands alone
	if i >= len(data) || data[i] != '0' {
		end = n.digits(data, i, false)
	}
	ok := end > i
	i = end
	if ok && i < len(data) && data[i] == '.' {
		end = n.digits(data, i+1, true)
		ok, i = end > i+1, end
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		neg := i < len(data) && data[i] == '-'
		if neg || i < len(data) && data[i] == '+' {
			i++
		}
		end = n.exponent(data, i, neg)
		ok, i = end > i, end
	}
	d.pos = i
	if !ok {
		return nil, d.syntax("in a number")
	}
	return data[start:i], nil
}

// numberStart reports whether the next value is a number; for null it
// consumes the literal, for anything else it words the refusal.
func (d *decoder) numberStart() (bool, *decodeError) {
	switch c := d.peek(); {
	case c == 'n':
		return false, d.literal("null")
	case c == '-' || isDigit(c):
		return true, nil
	}
	return false, d.wrongType("a number")
}

// clip keeps a hostile megabyte of digits out of an error message.
func clip(lit []byte) string {
	if len(lit) > 32 {
		return string(lit[:32]) + "..."
	}
	return string(lit)
}

func (d *decoder) float(v *float64) *decodeError {
	*v = 0
	ok, err := d.numberStart()
	if !ok {
		return err
	}
	start := d.pos
	var n decimal
	lit, err := d.number(&n)
	if err != nil {
		return err
	}
	if f, ok := n.float64(); ok {
		*v = f
		return nil
	}
	// The conversion does not escape, so a number of up to 32 bytes is
	// parsed without an allocation.
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return d.fail(start, "number %s does not fit a float64", clip(lit))
	}
	*v = f
	return nil
}

// integer reads a number for an int field of the given width: a plain
// decimal integer in range. 3.0 and 1e2 are numbers but not integers, and
// are refused as encoding/json refuses them.
func (d *decoder) integer(bitSize int) (n int64, ok bool, err *decodeError) {
	if ok, err = d.numberStart(); !ok {
		return 0, false, err
	}
	start := d.pos
	var dec decimal
	lit, err := d.number(&dec)
	if err != nil {
		return 0, false, err
	}
	n, perr := strconv.ParseInt(string(lit), 10, bitSize)
	if perr != nil {
		return 0, false, d.fail(start, "number %s is not an integer that fits an int%d", clip(lit), bitSize)
	}
	return n, true, nil
}

func (d *decoder) int(v *int) *decodeError {
	*v = 0
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*v = int(n)
	}
	return err
}

func (d *decoder) int64(v *int64) *decodeError {
	*v = 0
	n, ok, err := d.integer(64)
	if ok {
		*v = n
	}
	return err
}

func (d *decoder) bool(v *bool) *decodeError {
	*v = false
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	}
	return d.wrongType("a boolean")
}

// str reads a string into a fresh Go string — a copy, never a view of the
// body buffer: the buffer is pooled, and what is decoded here (node names
// in a cached optimize response) outlives the request by hours. A reused
// target's string is kept when the body spells the same value: strings
// are immutable, so keeping one is as good as a copy.
func (d *decoder) str(v *string) *decodeError {
	prev := *v
	*v = ""
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.quoted()
		if err != nil {
			return err
		}
		if plain {
			*v = keep(prev, raw)
		} else {
			*v = unquote(raw)
		}
		return nil
	}
	return d.wrongType("a string")
}

// keep returns the string the plain bytes raw spell: prev itself when it
// spells the same, else a copy.
func keep(prev string, raw []byte) string {
	if string(raw) == prev {
		return prev
	}
	return string(raw)
}

// plainByte marks the bytes that stand for themselves inside a string:
// ASCII except the quote, the backslash and the control characters.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quoted consumes the string token whose opening quote is at pos and
// returns the bytes between the quotes. plain reports that every one of
// them stands for itself, so they are the string's value; otherwise they
// have been validated (each escape well-formed, no raw control byte) and
// unquote gives the value.
func (d *decoder) quoted() (raw []byte, plain bool, err *decodeError) {
	data, start := d.data, d.pos+1
	i := plainEnd(data, start)
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start:i], true, nil
	}
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], false, nil
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("in a string (control characters must be escaped)")
		case c == '\\':
			i++
			if i >= len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := i + 4; i < end; {
					i++
					if i >= len(data) || hexValue(data[i]) < 0 {
						d.pos = i
						return nil, false, d.syntax("in a \\u escape (want four hex digits)")
					}
				}
			default:
				d.pos = i
				return nil, false, d.syntax("in a string escape")
			}
		}
	}
	d.pos = len(data)
	return nil, false, d.syntax("in a string")
}

// plainEnd returns where the run of plain bytes that starts at i ends.
func plainEnd(data []byte, i int) int {
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	return i
}

func hexValue(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// hex4 reads the four validated hex digits of a \u escape.
func hex4(s []byte) rune {
	return rune(hexValue(s[0])<<12 | hexValue(s[1])<<8 | hexValue(s[2])<<4 | hexValue(s[3]))
}

// unquote gives the value of a validated string body that holds escapes or
// bytes outside ASCII, to the letter of encoding/json: invalid UTF-8
// becomes U+FFFD, a surrogate pair becomes its rune, and a surrogate half
// without its partner becomes U+FFFD while whatever followed it is read on
// its own.
func unquote(s []byte) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			c = s[i+1]
			i += 2
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r := hex4(s[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					pair := utf8.RuneError
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						pair = utf16.DecodeRune(r, hex4(s[i+2:]))
					}
					if r = pair; r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			}
			b = append(b, c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return string(b)
}

// object is the walk over one JSON object whose keys come from one wire
// type's table.
type object struct {
	d    *decoder
	keys []string
	seen uint32 // bit i is set once keys[i] has been read; a repeat is refused
	key  int    // index in keys of the field whose value is next; -1 outside a field
	done bool   // the value was null, or its closing brace has been consumed
}

// object starts the walk of the next value, which must be an object or
// null (an empty walk).
func (d *decoder) object(keys []string) (object, *decodeError) {
	o := object{d: d, keys: keys, key: -1}
	switch d.peek() {
	case '{':
		d.pos++
		return o, nil
	case 'n':
		o.done = true
		return o, d.literal("null")
	}
	return o, d.wrongType("an object")
}

// next advances to the object's next field and reports whether there is
// one: the caller decodes the value of keys[o.key] and hands the outcome
// back through err on its next call. The first error ends the walk, named
// after the field it came up through.
func (o *object) next(err **decodeError) bool {
	if *err != nil {
		if o.key >= 0 {
			*err = (*err).in(o.keys[o.key])
		}
		return false
	}
	if o.done {
		return false
	}
	o.key, *err = o.d.nextKey(o.keys, &o.seen)
	o.done = o.key < 0
	return !o.done
}

// nextKey consumes the separator, the key and the colon in front of an
// object's next value and returns the key's index in keys, or -1 once it
// has consumed the closing brace instead. seen doubles as "not the first
// field": every key that gets this far sets a bit.
func (d *decoder) nextKey(keys []string, seen *uint32) (int, *decodeError) {
	c := d.peek()
	if c == '}' {
		d.pos++
		return -1, nil
	}
	if *seen != 0 {
		if c != ',' {
			return -1, d.syntax("after an object field (want ',' or '}')")
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		return -1, d.syntax("looking for a field name")
	}
	off := d.pos
	// Bodies mostly spell their keys plainly and in table order: try the
	// first key not read yet before scanning for whichever it is.
	i := bits.TrailingZeros32(^*seen)
	if end := off + 1; i < len(keys) && end+len(keys[i]) < len(d.data) &&
		d.data[end+len(keys[i])] == '"' && string(d.data[end:end+len(keys[i])]) == keys[i] {
		d.pos = end + len(keys[i]) + 1
	} else {
		raw, plain, err := d.quoted()
		if err != nil {
			return -1, err
		}
		if i = keyIndex(keys, raw, plain); i < 0 {
			return -1, d.fail(off, "unknown field %s", strconv.QuoteToASCII(clip(raw)))
		}
		if *seen&(1<<i) != 0 {
			return -1, d.fail(off, "duplicate field %q", keys[i])
		}
	}
	*seen |= 1 << i
	if d.peek() != ':' {
		return -1, d.syntax("after a field name (want ':')")
	}
	d.pos++
	return i, nil
}

// keyIndex finds a key in a wire type's table the way encoding/json
// resolves a field: exactly, else ignoring case — the tables are ASCII,
// for which strings.EqualFold is encoding/json's fold ("FLEET", and
// "ſhocK" too). -1 means no field has that name.
func keyIndex(keys []string, raw []byte, plain bool) int {
	for i, k := range keys {
		if k == string(raw) {
			return i
		}
	}
	name := string(raw)
	if !plain {
		name = unquote(raw)
	}
	for i, k := range keys {
		if strings.EqualFold(k, name) {
			return i
		}
	}
	return -1
}

// decodeSlice reads an array into *v, one elem call per element. null
// makes *v nil and [] makes it empty but not nil, as encoding/json does
// for a fresh target. The array *v already has is filled in place: elem
// overwrites each element, keeping what it can reuse of it. A new array
// is sized by hint when the length is foreseeable, as far as the body's
// presize allowance still reaches.
func decodeSlice[T any](d *decoder, v *[]T, hint int, elem func(*decoder, *T) *decodeError) *decodeError {
	switch d.peek() {
	case 'n':
		*v = nil
		return d.literal("null")
	case '[':
		d.pos++
	default:
		return d.wrongType("an array")
	}
	s := (*v)[:0]
	if hint = min(hint, d.presize); s == nil || cap(s) < hint {
		d.presize -= hint
		s = make([]T, 0, hint)
	}
	if d.peek() == ']' {
		d.pos++
		*v = s
		return nil
	}
	for {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		if err := elem(d, &s[len(s)-1]); err != nil {
			return err.at(len(s) - 1)
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			*v = s
			return nil
		default:
			return d.syntax("after an array element (want ',' or ']')")
		}
	}
}

// decodePtr reads an optional value: null makes *v nil, anything else is
// decoded into the T *v points to, a fresh one if it is nil.
func decodePtr[T any](d *decoder, v **T, elem func(*decoder, *T) *decodeError) *decodeError {
	if d.peek() == 'n' {
		*v = nil
		return d.literal("null")
	}
	if *v == nil {
		*v = new(T)
	}
	return elem(d, *v)
}

// reuse sets *f to spare and returns f. A struct decoder saves its
// target's old value as the spare and zeroes the target, so a field the
// body omits reads zero by construction; a field the body does spell is
// decoded into reuse(&v.F, spare.F), which hands the field's decoder the
// old slice, pointee or string to overwrite instead of allocating anew.
// A field decoded without reuse is as correct, only not reused.
func reuse[T any](f *T, spare T) *T {
	*f = spare
	return f
}

func (d *decoder) modelSpec(v *ModelSpec) *decodeError {
	spare := *v
	*v = ModelSpec{}
	o, err := d.object(modelSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(reuse(&v.Protocol, spare.Protocol))
		case 1:
			err = d.int(&v.N)
		case 2:
			err = d.int(&v.QPer)
		case 3:
			err = d.int(&v.QVC)
		case 4:
			err = d.int(&v.QEq)
		case 5:
			err = d.int(&v.QVCT)
		}
	}
	return err
}

// The key tokens of a node spelled as encoding/json writes a NodeSpec,
// {"name":"…","p_crash":…,"p_byz":…,"domain":"…"} with name and domain
// left out when empty: built from the key table, so that stays the one
// place the node's keys are spelled.
var (
	nodeOpenName  = newKeyToken(`{"` + nodeSpecKeys[0] + `":"`)
	nodeOpenCrash = newKeyToken(`{"` + nodeSpecKeys[1] + `":`)
	nodeCrash     = newKeyToken(`,"` + nodeSpecKeys[1] + `":`)
	nodeByz       = newKeyToken(`,"` + nodeSpecKeys[2] + `":`)
	nodeDomain    = newKeyToken(`,"` + nodeSpecKeys[3] + `":"`)
)

// keyToken is a key token of 8 to 16 bytes held as its first and its last
// eight bytes, two words that cover it, so a compare is two loads.
type keyToken struct {
	first, last uint64
	n           int
}

func newKeyToken(tok string) keyToken {
	if len(tok) < 8 || len(tok) > 16 {
		panic("service: key token " + tok + " is not 8 to 16 bytes")
	}
	b := []byte(tok)
	return keyToken{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[len(b)-8:]), len(b)}
}

// key consumes t if the body spells it at pos.
func (d *decoder) key(t keyToken) bool {
	end := d.pos + t.n
	if end > len(d.data) || binary.LittleEndian.Uint64(d.data[d.pos:]) != t.first || binary.LittleEndian.Uint64(d.data[end-8:]) != t.last {
		return false
	}
	d.pos = end
	return true
}

// nodeSpec decodes one fleet node. A fleet is the one wire object a body
// repeats N times, and clients mostly send it compact, so compactNode
// tries that spelling first; anything else goes back to the node's first
// byte and takes the walk every object takes.
func (d *decoder) nodeSpec(v *NodeSpec) *decodeError {
	spare := *v
	*v = NodeSpec{}
	start := d.pos
	if d.compactNode(v, &spare) {
		return nil
	}
	d.pos, *v = start, NodeSpec{}
	o, err := d.object(nodeSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(reuse(&v.Name, spare.Name))
		case 1:
			err = d.float(&v.PCrash)
		case 2:
			err = d.float(&v.PByz)
		case 3:
			err = d.str(reuse(&v.Domain, spare.Domain))
		}
	}
	return err
}

// compactNode decodes the node at pos in one straight pass if it is
// spelled exactly as encoding/json writes one (nodeOpenName…), into the
// zeroed *v, reusing spare's strings as str does, and reports whether it
// did. It stops at the first byte that spelling does not have —
// whitespace, another key order, an escape or a byte outside ASCII, a
// folded, unknown or repeated key, null, a number only strconv converts,
// the body's end — and the caller then rewinds: what it decodes, the walk
// decodes to the same value.
func (d *decoder) compactNode(v, spare *NodeSpec) bool {
	switch {
	case d.key(nodeOpenName):
		if !d.plainString(&v.Name, spare.Name) || !d.key(nodeCrash) {
			return false
		}
	case !d.key(nodeOpenCrash):
		return false
	}
	if !d.plainFloat(&v.PCrash) || !d.key(nodeByz) || !d.plainFloat(&v.PByz) {
		return false
	}
	if d.key(nodeDomain) && !d.plainString(&v.Domain, spare.Domain) {
		return false
	}
	return d.token("}")
}

// plainString reads the rest of a string whose opening quote is consumed,
// if it is plain bytes up to its closing quote.
func (d *decoder) plainString(v *string, prev string) bool {
	end := plainEnd(d.data, d.pos)
	if end == len(d.data) || d.data[end] != '"' {
		return false
	}
	*v = keep(prev, d.data[d.pos:end])
	d.pos = end + 1
	return true
}

// plainFloat reads the number at pos, if one starts there and float64
// converts it without strconv.
func (d *decoder) plainFloat(v *float64) bool {
	if d.pos == len(d.data) || d.data[d.pos] != '-' && !isDigit(d.data[d.pos]) {
		return false
	}
	var n decimal
	if _, err := d.number(&n); err != nil {
		return false
	}
	f, ok := n.float64()
	*v = f
	return ok
}

func (d *decoder) domainSpec(v *DomainSpec) *decodeError {
	spare := *v
	*v = DomainSpec{}
	o, err := d.object(domainSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(reuse(&v.Name, spare.Name))
		case 1:
			err = d.float(&v.Shock)
		case 2:
			err = decodePtr(d, reuse(&v.CrashMult, spare.CrashMult), (*decoder).float)
		case 3:
			err = decodePtr(d, reuse(&v.ByzMult, spare.ByzMult), (*decoder).float)
		}
	}
	return err
}

func (d *decoder) curveSpec(v *CurveSpec) *decodeError {
	*v = CurveSpec{}
	o, err := d.object(curveSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.float(&v.FloorFrac)
		case 1:
			err = d.float(&v.Scale)
		}
	}
	return err
}

// queryBlock points at the fields of queryKeys, the block analyze,
// optimize and tail requests share.
type queryBlock struct {
	model   *ModelSpec
	fleet   *[]NodeSpec
	p       **float64
	domains *[]DomainSpec
}

func (v *AnalyzeRequest) block() queryBlock  { return queryBlock{&v.Model, &v.Fleet, &v.P, &v.Domains} }
func (v *OptimizeRequest) block() queryBlock { return queryBlock{&v.Model, &v.Fleet, &v.P, &v.Domains} }
func (v *TailRequest) block() queryBlock     { return queryBlock{&v.Model, &v.Fleet, &v.P, &v.Domains} }

// queryField decodes field i of queryKeys into v, reusing spare's. The
// fleet is sized from model.n when the model came first — clamped, since n
// is not validated yet, and only a hint to decodeSlice.
func (d *decoder) queryField(i int, v, spare queryBlock) *decodeError {
	switch i {
	case 0:
		return d.modelSpec(reuse(v.model, *spare.model))
	case 1:
		return decodeSlice(d, reuse(v.fleet, *spare.fleet), min(max(v.model.N, 0), inputcheck.MaxClusterSize), (*decoder).nodeSpec)
	case 2:
		return decodePtr(d, reuse(v.p, *spare.p), (*decoder).float)
	default:
		return decodeSlice(d, reuse(v.domains, *spare.domains), 0, (*decoder).domainSpec)
	}
}

func (d *decoder) analyzeRequest(v *AnalyzeRequest) *decodeError {
	spare := *v
	*v = AnalyzeRequest{}
	o, err := d.object(analyzeRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 4:
			err = d.bool(&v.Debug)
		default:
			err = d.queryField(o.key, v.block(), spare.block())
		}
	}
	return err
}

func (d *decoder) optimizeRequest(v *OptimizeRequest) *decodeError {
	spare := *v
	*v = OptimizeRequest{}
	o, err := d.object(optimizeRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 4:
			err = d.float(&v.Budget)
		case 5:
			err = d.float(&v.MaxSpend)
		case 6:
			err = d.curveSpec(&v.Curve)
		case 7:
			err = d.str(reuse(&v.Target, spare.Target))
		case 8:
			err = d.int(&v.Iterations)
		case 9:
			err = d.float(&v.Tolerance)
		default:
			err = d.queryField(o.key, v.block(), spare.block())
		}
	}
	return err
}

func (d *decoder) tailRequest(v *TailRequest) *decodeError {
	spare := *v
	*v = TailRequest{}
	o, err := d.object(tailRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 4:
			err = d.str(reuse(&v.Event, spare.Event))
		case 5:
			err = d.str(reuse(&v.Method, spare.Method))
		case 6:
			err = d.float(&v.MaxWork)
		case 7:
			err = d.int(&v.Samples)
		case 8:
			err = d.int64(&v.Seed)
		default:
			err = d.queryField(o.key, v.block(), spare.block())
		}
	}
	return err
}

func (d *decoder) sweepRequest(v *SweepRequest) *decodeError {
	spare := *v
	*v = SweepRequest{}
	o, err := d.object(sweepRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(reuse(&v.Protocol, spare.Protocol))
		case 1:
			err = decodeSlice(d, reuse(&v.Ns, spare.Ns), 0, (*decoder).int)
		case 2:
			err = decodeSlice(d, reuse(&v.Ps, spare.Ps), 0, (*decoder).float)
		case 3:
			err = decodeSlice(d, reuse(&v.Domains, spare.Domains), 0, (*decoder).domainSpec)
		}
	}
	return err
}

func (d *decoder) batchItem(v *BatchItem) *decodeError {
	spare := *v
	*v = BatchItem{}
	o, err := d.object(batchItemKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = decodePtr(d, reuse(&v.Analyze, spare.Analyze), (*decoder).analyzeRequest)
		case 1:
			err = decodePtr(d, reuse(&v.Sweep, spare.Sweep), (*decoder).sweepRequest)
		case 2:
			err = decodePtr(d, reuse(&v.Optimize, spare.Optimize), (*decoder).optimizeRequest)
		case 3:
			err = decodePtr(d, reuse(&v.Tail, spare.Tail), (*decoder).tailRequest)
		}
	}
	return err
}

func (d *decoder) batchRequest(v *BatchRequest) *decodeError {
	spare := *v
	*v = BatchRequest{}
	o, err := d.object(batchRequestKeys)
	for o.next(&err) {
		err = decodeSlice(d, reuse(&v.Items, spare.Items), 0, (*decoder).batchItem)
	}
	return err
}
