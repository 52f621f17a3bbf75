package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// This file is the one request decoder: every POST body — and the analyze
// query a peer carries over the fleet tier — is read in full, then walked
// once by a hand-written scanner that fills the wire types directly. It
// accepts exactly the bodies strict encoding/json accepted before it
// (decodeReference in decode_test.go, the differential oracle
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

// maxPooledBody caps the body buffers the pool keeps: one that had to grow
// past it for a large request is dropped, so an idle pool slot never pins
// megabytes. 64 KiB holds an analyze body of about 700 nodes.
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

// readRequest is the front of every POST endpoint: count the request, then
// read and decode its size-bounded body into req (a pointer to one of the
// five request types), recording the two together as the trace's decode
// span. A body over limit is a 413; every other failure is a 400.
func readRequest(count *obs.Counter, limit int64, w http.ResponseWriter, r *http.Request, req any) error {
	count.Inc()
	start := time.Now()
	err := decodeBody(http.MaxBytesReader(w, r.Body, limit), req)
	TraceFrom(r.Context()).Since("decode", start)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return clientError{fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit), http.StatusRequestEntityTooLarge}
	}
	return err
}

// decodeBody reads body to its end into a pooled buffer and decodes what
// it read.
func decodeBody(body io.Reader, v any) error {
	buf := getBody()
	defer putBody(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		return badRequest(fmt.Errorf("reading request body: %w", err))
	}
	return decodeRequest(buf.Bytes(), v)
}

// decodeRequest decodes one complete body into v, a pointer to one of the
// five request types. Strings in the result are copies: nothing in v
// refers to data once it returns.
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

// literal consumes lit, whose first byte the caller has seen at pos.
func (d *decoder) literal(lit string) *decodeError {
	if end := d.pos + len(lit); end <= len(d.data) && string(d.data[d.pos:end]) == lit {
		d.pos = end
		return nil
	}
	for i := 0; d.pos < len(d.data) && d.data[d.pos] == lit[i]; i++ {
		d.pos++
	}
	return d.syntax("in literal " + lit)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the end of the run of decimal digits that starts at i.
func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// number consumes a JSON number and returns its text. The whole grammar is
// checked here — no leading zeros, digits on both sides of the point and
// after the exponent — because strconv alone would also take 0x1p-2, 1_0,
// Inf and NaN.
func (d *decoder) number() ([]byte, *decodeError) {
	data, start, i := d.data, d.pos, d.pos
	if data[i] == '-' {
		i++
	}
	// Up to three runs of digits; the number is malformed once one is empty.
	end := i + 1 // a leading 0 stands alone
	if i >= len(data) || data[i] != '0' {
		end = digits(data, i)
	}
	ok := end > i
	i = end
	if ok && i < len(data) && data[i] == '.' {
		end = digits(data, i+1)
		ok, i = end > i+1, end
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '-' || data[i] == '+') {
			i++
		}
		end = digits(data, i)
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
	ok, err := d.numberStart()
	if !ok {
		return err
	}
	start := d.pos
	lit, err := d.number()
	if err != nil {
		return err
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
	lit, err := d.number()
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
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*v = int(n)
	}
	return err
}

func (d *decoder) int64(v *int64) *decodeError {
	n, ok, err := d.integer(64)
	if ok {
		*v = n
	}
	return err
}

func (d *decoder) bool(v *bool) *decodeError {
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
// in a cached optimize response) outlives the request by hours.
func (d *decoder) str(v *string) *decodeError {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.quoted()
		if err != nil {
			return err
		}
		if plain {
			*v = string(raw)
		} else {
			*v = unquote(raw)
		}
		return nil
	}
	return d.wrongType("a string")
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
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
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
// leaves *v alone and [] makes it empty but not nil, as encoding/json
// does. hint sizes the first allocation when the length is foreseeable,
// as far as the body's presize allowance still reaches.
func decodeSlice[T any](d *decoder, v *[]T, hint int, elem func(*decoder, *T) *decodeError) *decodeError {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
		d.pos++
	default:
		return d.wrongType("an array")
	}
	hint = min(hint, d.presize)
	d.presize -= hint
	s := make([]T, 0, hint)
	if d.peek() == ']' {
		d.pos++
		*v = s
		return nil
	}
	for {
		var zero T
		s = append(s, zero)
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

// decodePtr reads an optional value: null leaves *v nil, anything else is
// decoded into a fresh T.
func decodePtr[T any](d *decoder, v **T, elem func(*decoder, *T) *decodeError) *decodeError {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	*v = new(T)
	return elem(d, *v)
}

func (d *decoder) modelSpec(v *ModelSpec) *decodeError {
	o, err := d.object(modelSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(&v.Protocol)
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

func (d *decoder) nodeSpec(v *NodeSpec) *decodeError {
	o, err := d.object(nodeSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(&v.Name)
		case 1:
			err = d.float(&v.PCrash)
		case 2:
			err = d.float(&v.PByz)
		case 3:
			err = d.str(&v.Domain)
		}
	}
	return err
}

func (d *decoder) domainSpec(v *DomainSpec) *decodeError {
	o, err := d.object(domainSpecKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(&v.Name)
		case 1:
			err = d.float(&v.Shock)
		case 2:
			err = decodePtr(d, &v.CrashMult, (*decoder).float)
		case 3:
			err = decodePtr(d, &v.ByzMult, (*decoder).float)
		}
	}
	return err
}

func (d *decoder) curveSpec(v *CurveSpec) *decodeError {
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

// queryField decodes field i of queryKeys, the block three request types
// share. The fleet is sized from model.n when the model came first —
// clamped, since n is not validated yet, and only a hint to decodeSlice.
func (d *decoder) queryField(i int, model *ModelSpec, fleet *[]NodeSpec, p **float64, domains *[]DomainSpec) *decodeError {
	switch i {
	case 0:
		return d.modelSpec(model)
	case 1:
		return decodeSlice(d, fleet, min(max(model.N, 0), inputcheck.MaxClusterSize), (*decoder).nodeSpec)
	case 2:
		return decodePtr(d, p, (*decoder).float)
	default:
		return decodeSlice(d, domains, 0, (*decoder).domainSpec)
	}
}

func (d *decoder) analyzeRequest(v *AnalyzeRequest) *decodeError {
	o, err := d.object(analyzeRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 4:
			err = d.bool(&v.Debug)
		default:
			err = d.queryField(o.key, &v.Model, &v.Fleet, &v.P, &v.Domains)
		}
	}
	return err
}

func (d *decoder) optimizeRequest(v *OptimizeRequest) *decodeError {
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
			err = d.str(&v.Target)
		case 8:
			err = d.int(&v.Iterations)
		case 9:
			err = d.float(&v.Tolerance)
		default:
			err = d.queryField(o.key, &v.Model, &v.Fleet, &v.P, &v.Domains)
		}
	}
	return err
}

func (d *decoder) tailRequest(v *TailRequest) *decodeError {
	o, err := d.object(tailRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 4:
			err = d.str(&v.Event)
		case 5:
			err = d.str(&v.Method)
		case 6:
			err = d.float(&v.MaxWork)
		case 7:
			err = d.int(&v.Samples)
		case 8:
			err = d.int64(&v.Seed)
		default:
			err = d.queryField(o.key, &v.Model, &v.Fleet, &v.P, &v.Domains)
		}
	}
	return err
}

func (d *decoder) sweepRequest(v *SweepRequest) *decodeError {
	o, err := d.object(sweepRequestKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = d.str(&v.Protocol)
		case 1:
			err = decodeSlice(d, &v.Ns, 0, (*decoder).int)
		case 2:
			err = decodeSlice(d, &v.Ps, 0, (*decoder).float)
		case 3:
			err = decodeSlice(d, &v.Domains, 0, (*decoder).domainSpec)
		}
	}
	return err
}

func (d *decoder) batchItem(v *BatchItem) *decodeError {
	o, err := d.object(batchItemKeys)
	for o.next(&err) {
		switch o.key {
		case 0:
			err = decodePtr(d, &v.Analyze, (*decoder).analyzeRequest)
		case 1:
			err = decodePtr(d, &v.Sweep, (*decoder).sweepRequest)
		case 2:
			err = decodePtr(d, &v.Optimize, (*decoder).optimizeRequest)
		case 3:
			err = decodePtr(d, &v.Tail, (*decoder).tailRequest)
		}
	}
	return err
}

func (d *decoder) batchRequest(v *BatchRequest) *decodeError {
	o, err := d.object(batchRequestKeys)
	for o.next(&err) {
		err = decodeSlice(d, &v.Items, 0, (*decoder).batchItem)
	}
	return err
}
