package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// decodeReference is the decoder the service ran until the hand-written
// one in decode.go replaced it, kept verbatim as that decoder's oracle:
// strict encoding/json — unknown fields rejected, and anything but
// whitespace after the first JSON value an error.
func decodeReference(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("bad JSON body: %w", err))
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest(errors.New("bad JSON body: trailing data after the request object"))
	}
	return nil
}

// analyzeShape builds an analyze body the way bench/workloads.go spells
// them: named heterogeneous nodes with shortest-form floats, spread
// round-robin over zones when there are any.
func analyzeShape(n, zones int) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	float := func(b []byte, lo, hi float64) []byte {
		return strconv.AppendFloat(b, lo+(hi-lo)*r.Float64(), 'g', -1, 64)
	}
	b := []byte(`{"model":{"protocol":"raft","n":` + strconv.Itoa(n) + `},"fleet":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"b0-n`+strconv.Itoa(i)+`","p_crash":`...)
		b = float(b, 0.002, 0.03)
		b = append(b, `,"p_byz":`...)
		b = float(b, 0.0001, 0.002)
		if zones > 0 {
			b = append(b, `,"domain":"zone-`+string(rune('a'+i%zones))+`"`...)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	for z := 0; z < zones; z++ {
		if z == 0 {
			b = append(b, `,"domains":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"name":"zone-`+string(rune('a'+z))+`","shock":`...)
		b = float(b, 0.001, 0.02)
		b = append(b, `,"crash_mult":`...)
		b = float(b, 2, 8)
		b = append(b, `,"byz_mult":1}`...)
	}
	if zones > 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

// The benchmark's three analyze shapes and solver_mix's batch.
var (
	hotBody   = analyzeShape(9, 0)   // hot_small: a small named fleet
	churnBody = analyzeShape(48, 4)  // domain_churn: 48 nodes over 4 zones
	coldBody  = analyzeShape(256, 0) // cold_large
	batchBig  = func() []byte {
		b := []byte(`{"items":[`)
		for i := 0; i < 16; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"analyze":`...)
			b = append(b, analyzeShape(9+2*(i%4), 0)...)
			b = append(b, '}')
		}
		return append(b, `]}`...)
	}()
)

// decodeShapes are the three analyze shapes as the benchmark sends them,
// every node compact, and as json.Indent lays them out, every node on the
// walk: what a node costs when compactNode gives it up at its second byte.
var decodeShapes = []struct {
	name string
	body []byte
}{
	{"hot", hotBody}, {"churn", churnBody}, {"cold", coldBody},
	{"hot-indented", indented(hotBody)}, {"churn-indented", indented(churnBody)}, {"cold-indented", indented(coldBody)},
}

func indented(body []byte) []byte {
	var b bytes.Buffer
	if err := json.Indent(&b, body, "", "  "); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// wireKeys is every wire type the decoder reads, with its key table.
var wireKeys = map[reflect.Type][]string{
	reflect.TypeOf(ModelSpec{}):       modelSpecKeys,
	reflect.TypeOf(NodeSpec{}):        nodeSpecKeys,
	reflect.TypeOf(DomainSpec{}):      domainSpecKeys,
	reflect.TypeOf(CurveSpec{}):       curveSpecKeys,
	reflect.TypeOf(AnalyzeRequest{}):  analyzeRequestKeys,
	reflect.TypeOf(SweepRequest{}):    sweepRequestKeys,
	reflect.TypeOf(OptimizeRequest{}): optimizeRequestKeys,
	reflect.TypeOf(TailRequest{}):     tailRequestKeys,
	reflect.TypeOf(BatchItem{}):       batchItemKeys,
	reflect.TypeOf(BatchRequest{}):    batchRequestKeys,
}

// requestTypes are the five bodies decodeRequest takes.
var requestTypes = []reflect.Type{
	reflect.TypeOf(AnalyzeRequest{}), reflect.TypeOf(SweepRequest{}), reflect.TypeOf(OptimizeRequest{}),
	reflect.TypeOf(TailRequest{}), reflect.TypeOf(BatchRequest{}),
}

// TestDecoderCoversEveryWireField keeps the hand-written decoder from
// drifting off the wire types: every struct reachable from a request type
// has a key table holding exactly its json tag names in field order, and a
// value with every field set survives Marshal → decodeRequest — so a field
// added to a request struct without a table entry and a decode case fails
// here, not at a client as "unknown field".
func TestDecoderCoversEveryWireField(t *testing.T) {
	visited := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Ptr, reflect.Slice:
			walk(typ.Elem())
		case reflect.Struct:
			if visited[typ] {
				return
			}
			visited[typ] = true
			keys, ok := wireKeys[typ]
			if !ok {
				t.Errorf("%v is reachable from a request but has no key table", typ)
				return
			}
			var tags []string
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				tag := strings.Split(f.Tag.Get("json"), ",")[0]
				if tag == "" || tag == "-" || f.Anonymous {
					t.Errorf("%v.%s: the decoder needs a plain json name on every wire field", typ, f.Name)
				}
				tags = append(tags, tag)
				walk(f.Type)
			}
			if !reflect.DeepEqual(tags, keys) {
				t.Errorf("%v: json tags %q, key table %q", typ, tags, keys)
			}
			if len(keys) > 32 {
				t.Errorf("%v: %d keys do not fit the walk's 32-bit seen mask", typ, len(keys))
			}
			for i, k := range keys {
				// keyIndex's EqualFold is encoding/json's fold only for ASCII
				// tags, and its first match is the only match only if no two
				// keys fold together.
				if k != strings.ToLower(k) || strings.IndexFunc(k, func(r rune) bool { return r >= 0x80 }) >= 0 {
					t.Errorf("%v: key %q is not lower-case ASCII", typ, k)
				}
				for _, other := range keys[:i] {
					if strings.EqualFold(k, other) {
						t.Errorf("%v: keys %q and %q fold together", typ, k, other)
					}
				}
			}
		}
	}
	for _, typ := range requestTypes {
		walk(typ)
	}
	for typ := range wireKeys {
		if !visited[typ] {
			t.Errorf("key table for %v, which no request reaches", typ)
		}
	}

	// Every field set to its own value: a case wired to the wrong field, or
	// missing from a switch, does not round-trip.
	for _, typ := range requestTypes {
		want := populated(typ)
		body, err := json.Marshal(want.Interface())
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(typ)
		if err := decodeRequest(body, got.Interface()); err != nil {
			t.Errorf("%v with every field set: %v\n%s", typ, err, body)
		} else if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%v with every field set does not round-trip:\n got %+v\nwant %+v", typ, got.Elem(), want.Elem())
		}
	}
}

// populated returns a pointer to a typ with every field set to a value of
// its own: pointers non-nil, slices of two, each string, number and flag
// distinct.
func populated(typ reflect.Type) reflect.Value {
	counter := 0
	var populate func(v reflect.Value)
	populate = func(v reflect.Value) {
		counter++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				populate(v.Field(i))
			}
		case reflect.Ptr:
			v.Set(reflect.New(v.Type().Elem()))
			populate(v.Elem())
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			populate(v.Index(0))
			populate(v.Index(1))
		case reflect.String:
			v.SetString("s" + strconv.Itoa(counter))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(counter))
		case reflect.Float64:
			v.SetFloat(float64(counter) + 0.5)
		case reflect.Bool:
			v.SetBool(true)
		default:
			panic(fmt.Sprintf("wire types use a %v, which the decoder has no reader for", v.Kind()))
		}
	}
	p := reflect.New(typ)
	populate(p.Elem())
	return p
}

// isDuplicateField reports the one refusal the reference does not share.
func isDuplicateField(err error) bool {
	var de *decodeError
	return errors.As(err, &de) && strings.HasPrefix(de.msg, "duplicate field ")
}

// diffDecode runs both decoders over data as a Q and requires the same
// verdict and, on accept, the same value — except that the new decoder may
// refuse a repeated key the reference merged.
func diffDecode[Q any](t *testing.T, data []byte) {
	t.Helper()
	var got, want Q
	wantErr := decodeReference(bytes.NewReader(data), &want)
	scratch := append([]byte(nil), data...)
	gotErr := decodeRequest(scratch, &got)
	// Decoded strings must be copies: the handler's buffer goes back to a
	// pool while names decoded from it live on in the optimize cache.
	for i := range scratch {
		scratch[i] = 'X'
	}
	if gotErr != nil && (!isClientError(gotErr) || !strings.HasPrefix(gotErr.Error(), "bad JSON body: ")) {
		t.Fatalf("%T: refusal is not a worded client error: %v", got, gotErr)
	}
	// A pooled target holds the previous request. Decoded into a target a
	// different seed body left dirty, and into one with every field set,
	// data must give the fresh verdict and the fresh value: a field it
	// omits reads zero, not the old value.
	var seeded Q
	for i := range dirtyBodies {
		b := dirtyBodies[(len(data)+i)%len(dirtyBodies)]
		if !bytes.Equal(b, data) && decodeRequest(b, &seeded) == nil {
			break
		}
	}
	for _, dirty := range []*Q{&seeded, populated(reflect.TypeOf(got)).Interface().(*Q)} {
		if dirtyErr := decodeRequest(data, dirty); fmt.Sprint(dirtyErr) != fmt.Sprint(gotErr) {
			t.Fatalf("%T: into a dirty target the verdict on %q is %v, fresh %v", got, data, dirtyErr, gotErr)
		}
		if gotErr == nil && !reflect.DeepEqual(*dirty, got) {
			t.Fatalf("%T: into a dirty target %q decodes to\n %+v\nfresh\n %+v", got, data, *dirty, got)
		}
	}
	if isDuplicateField(gotErr) {
		return
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: verdicts differ on %q:\n new: %v\n ref: %v", got, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: values differ on %q:\n new: %+v\n ref: %+v", got, data, got, want)
	}
}

// decodeEdgeCases are bodies picked for the corners of the grammar, and
// every numberSeeds literal as a "p"; each runs against all five request
// types.
var decodeEdgeCases = append([]string{
	``, ` `, "\n\t\r ", `null`, ` null `, `nul`, `nullx`, `{}`, ` { } `, `[]`, `0`, `"x"`, `true`, `{`, `{"`, `{"p"`, `{"p":`, `{"p":1`, `{"p":1,`, `{"p":1,}`, `{,}`, `{"p" 1}`, "\xef\xbb\xbf{}", "{}\x00",
	// null is "absent" for every field type.
	`{"model":null,"fleet":null,"p":null,"domains":null,"debug":null}`,
	`{"model":{"protocol":null,"n":null,"q_per":null},"fleet":[null,{"name":null,"p_crash":null,"domain":null}],"domains":[{"name":null,"shock":null,"crash_mult":null,"byz_mult":null},null]}`,
	`{"protocol":null,"ns":[null,3,null],"ps":[null,0.5],"domains":[]}`,
	`{"items":[null,{"analyze":null,"sweep":null,"optimize":null,"tail":null},{"analyze":{}},{"tail":{"seed":null,"samples":null}}]}`,
	`{"model":{},"budget":null,"curve":null,"target":null,"iterations":null}`,
	`{"fleet":[],"domains":[],"ns":[],"ps":[],"items":[]}`,
	// Keys: exact, then ignoring case, after unescaping.
	`{"Model":{"PROTOCOL":"raft","N":3},"P":0.01,"DEBUG":true}`,
	`{"FLEET":[{"NAME":"a","P_Crash":0.1,"p_BYZ":0.2,"Domain":"z"}],"DOMAINS":[{"\u017fhoc\u212a":0.5,"crash_Mult":2}]}`,
	"{\"domains\":[{\"\u017fhoc\u212a\":0.5}],\"ITEM\u017f\":[]}",
	`{"mod\u0065l":{"n":3},"\u0070":0.5,"\u0050s":[1]}`,
	`{"model ":{}}`, `{"":1}`, `{"p\u0000":1}`, "{\"p\xff\":1}", `{"ｐ":1}`,
	// Duplicates: refused by the new decoder, merged by the reference.
	`{"p":0.5,"p":0.01}`, `{"p":0.5,"P":0.01}`, `{"p":null,"p":0.01}`,
	`{"fleet":[{"name":"a","p_crash":0.1}],"fleet":[{"p_byz":0.2}]}`,
	`{"model":{"n":3,"n":4}}`, `{"items":[{"analyze":{},"analyze":{}}]}`, `{"bogus":1,"bogus":2}`,
	// Strings.
	`{"model":{"protocol":"😀"},"fleet":[{"name":"\ud83d\ude00","domain":"\ud83d"},{"name":"\ude00\ud83d\u0041","domain":"\ud83d\ud83d\ude00"}]}`,
	"{\"model\":{\"protocol\":\"a\xffb\xc0\xafc\xe2\x82\"},\"event\":\"\xed\xa0\x80\",\"target\":\"\xf0\x9f\x98\x80\"}",
	`{"model":{"protocol":"\"\\\/\b\f\n\r\t\u0000\u00e9\uFFFD"},"event":"\u12","method":"\x41"}`,
	"{\"event\":\"a\tb\"}", "{\"event\":\"a\nb\"}", `{"event":"a\`, `{"event":"a\"`, `{"event":"\ud83d\u"}`, `{"event":"\ud83d\ude0"}`, `{"event":"unterminated`,
	// Numbers.
	`{"p":-0}`, `{"p":-0.0}`, `{"p":0e0}`, `{"p":1E+2}`, `{"p":1e-999}`, `{"p":1e999}`, `{"p":-1e999}`, `{"p":01}`, `{"p":-01}`, `{"p":1.}`, `{"p":.5}`, `{"p":+1}`, `{"p":-}`, `{"p":1e}`, `{"p":1e+}`, `{"p":0x10}`, `{"p":1_0}`, `{"p":NaN}`, `{"p":Infinity}`, `{"p":"0.5"}`, `{"p":0.1234567890123456789012345678901234567890}`,
	// strconv stops reading an exponent at five digits; whatever it makes of
	// this one, both decoders must make the same.
	`{"p":0.` + strings.Repeat("0", 9999) + `1e100005}`, `{"p":1` + strings.Repeat("0", 400) + `e-400}`, `{"p":1e-100005}`, `{"p":0e100005}`,
	`{"model":{"n":3.0}}`, `{"model":{"n":1e2}}`, `{"model":{"n":-0}}`, `{"model":{"n":9223372036854775807}}`, `{"model":{"n":9223372036854775808}}`, `{"model":{"n":-9223372036854775808}}`, `{"model":{"n":-9223372036854775809}}`,
	`{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"seed":3.0}`, `{"samples":1e2}`, `{"iterations":00}`, `{"ns":[3.0]}`, `{"ns":[1,2,]}`, `{"ns":[,1]}`, `{"ns":[1 2]}`, `{"ns":[1,2`,
	// Wrong types and unknown fields, at every depth.
	`{"model":[]}`, `{"model":"raft"}`, `{"fleet":{}}`, `{"fleet":[[]]}`, `{"fleet":[1]}`, `{"p":{}}`, `{"p":[0.5]}`, `{"p":true}`, `{"debug":1}`, `{"debug":"true"}`, `{"debug":truex}`, `{"debug":tru}`, `{"debug":False}`, `{"event":1}`, `{"event":{}}`, `{"items":{}}`, `{"items":[[]]}`, `{"items":[{"sweep":[]}]}`, `{"curve":1}`, `{"curve":{"scale":"1"}}`,
	`{"bogus":1}`, `{"model":{"bogus":1}}`, `{"fleet":[{"name":"a"},{"nmae":"b"}]}`, `{"items":[{"analyze":{"model":{"protocols":"raft"}}}]}`, `{"domains":[{"name":"z","shock":0.1,"mult":3}]}`,
	// Whitespace and what follows the value.
	" \n\t{ \"model\" \r\n: { \"protocol\" : \"raft\" , \"n\" : 3 } , \"p\" :\t0.01 , \"fleet\" : [ ] }\n\n",
	`{"p":0.5} `, `{"p":0.5}x`, `{"p":0.5}{}`, `{"p":0.5},`, `{"p":0.5}]`, `{"p":0.5} null`, `null null`, "{\"p\":0.5}\x0b", "{\"p\":0.5}\xc2\xa0",
}, func() (out []string) {
	for _, s := range numberSeeds {
		out = append(out, `{"p":`+s+`}`)
	}
	// Each of compactNode's exits, as a fleet's second node (the first is
	// entered past the array's whitespace), and a compact node cut short
	// at every byte.
	for _, node := range compactNodeExits {
		out = append(out, `{"fleet":[`+compactNodes[0]+`,`+node+`]}`)
	}
	for _, node := range compactNodes {
		for k := range node {
			out = append(out, `{"fleet":[`+node[:k])
		}
	}
	// Pooled history: a node that had a domain, then compact nodes without
	// one, under the same name, and with the same name in another domain.
	return append(out, nodeHistory...)
}()...)

// compactNodes are nodes spelled as encoding/json writes them, with each
// field omitempty may leave out left out: compactNode decodes every one.
var compactNodes = []string{
	`{"name":"n-1","p_crash":0.01,"p_byz":0.002,"domain":"zone-a"}`,
	`{"name":"n-1","p_crash":0.01,"p_byz":0.002}`,
	`{"p_crash":-0,"p_byz":1E+2,"domain":"zone-a"}`,
	`{"p_crash":1,"p_byz":0}`,
	`{"name":"","p_crash":0.5e-3,"p_byz":-2,"domain":""}`,
}

// compactNodeExits leave compactNode at each of its exits — whitespace
// after every token, another key order, an escape, non-ASCII, a folded,
// unknown or repeated key, null, a number only strconv converts, a
// malformed one, a wrong type — for the walk to decode or refuse.
var compactNodeExits = []string{
	` {"name":"a","p_crash":0.1,"p_byz":0.2}`, `{ "name":"a","p_crash":0.1,"p_byz":0.2}`, `{"name" :"a","p_crash":0.1,"p_byz":0.2}`,
	`{"name": "a","p_crash":0.1,"p_byz":0.2}`, `{"name":"a" ,"p_crash":0.1,"p_byz":0.2}`, `{"name":"a", "p_crash":0.1,"p_byz":0.2}`,
	`{"name":"a","p_crash" :0.1,"p_byz":0.2}`, `{"name":"a","p_crash": 0.1,"p_byz":0.2}`, `{"name":"a","p_crash":0.1 ,"p_byz":0.2}`,
	`{"p_crash":0.1, "p_byz":0.2}`, "{\"p_crash\":0.1,\"p_byz\":\t0.2}", `{"p_crash":0.1,"p_byz":0.2 }`,
	`{"p_crash":0.1,"p_byz":0.2 ,"domain":"z"}`, `{"p_crash":0.1,"p_byz":0.2,"domain": "z"}`, "{\"p_crash\":0.1,\"p_byz\":0.2,\"domain\":\"z\"\n}",
	`{}`, `{"name":"a"}`, `{"p_crash":0.1}`, `{"p_crash":0.1,"domain":"z"}`, `{"p_byz":0.2,"p_crash":0.1}`,
	`{"p_crash":0.1,"name":"a","p_byz":0.2}`, `{"name":"a","p_byz":0.2,"p_crash":0.1}`, `{"domain":"z","name":"a","p_crash":0.1,"p_byz":0.2}`,
	`{"name":"a","domain":"z","p_crash":0.1,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":0.2,"domain":"z","name":"a"}`,
	`{"name":"\u0061","p_crash":0.1,"p_byz":0.2}`, `{"name":"a\"b","p_crash":0.1,"p_byz":0.2}`, `{"n\u0061me":"a","p_crash":0.1,"p_byz":0.2}`,
	`{"p_crash":0.1,"p_byz":0.2,"domain":"z\/"}`, `{"name":"é","p_crash":0.1,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":0.2,"domain":"zoné"}`,
	"{\"name\":\"a\x01\",\"p_crash\":0.1,\"p_byz\":0.2}", "{\"name\":\"a\xff\",\"p_crash\":0.1,\"p_byz\":0.2}",
	`{"Name":"a","p_crash":0.1,"p_byz":0.2}`, `{"name":"a","P_CRASH":0.1,"p_byz":0.2}`, `{"P_crash":0.1,"p_byz":0.2}`, `{"p_crash":0.1,"p_Byz":0.2}`,
	`{"p_crash":0.1,"p_byz":0.2,"Domain":"z"}`, `{"nam":"a","p_crash":0.1,"p_byz":0.2}`, `{"name":"a","p_crashx":0.1,"p_byz":0.2}`,
	`{"p_crash":0.1,"p_byz":0.2,"domains":"z"}`, `{"p_crash":0.1,"p_byz":0.2,"domain":"z","x":1}`, `{"p_crash":0.1,"p_byz":0.2,"shock":1}`,
	`{"name":"a","name":"b","p_crash":0.1,"p_byz":0.2}`, `{"p_crash":0.1,"p_crash":0.2,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":0.2,"p_byz":0.3}`,
	`{"p_crash":0.1,"p_byz":0.2,"domain":"z","domain":"y"}`, `{"p_crash":0.1,"p_byz":0.2,"domain":"z","name":"b"}`,
	`null`, `{"name":null,"p_crash":0.1,"p_byz":0.2}`, `{"p_crash":null,"p_byz":0.2}`, `{"name":"a","p_crash":0.1,"p_byz":null}`, `{"p_crash":0.1,"p_byz":0.2,"domain":null}`,
	`{"name":1,"p_crash":0.1,"p_byz":0.2}`, `{"p_crash":"0.1","p_byz":0.2}`, `{"p_crash":true,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":[0.2]}`, `{"p_crash":0.1,"p_byz":0.2,"domain":7}`,
	`{"p_crash":0.12345678901234567891,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":4.9e-324}`, `{"p_crash":1e-400,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":1e999}`,
	`{"p_crash":01,"p_byz":0.2}`, `{"p_crash":-,"p_byz":0.2}`, `{"p_crash":1.,"p_byz":0.2}`, `{"p_crash":.5,"p_byz":0.2}`, `{"p_crash":+1,"p_byz":0.2}`, `{"p_crash":0.1,"p_byz":1e}`,
	`{"p_crash":0.1,"p_byz":0.2,}`, `{"p_crash":0.1,"p_byz":0.2,"domain":"z",}`, `{"p_crash":0.1,"p_byz":0.2]`, `[]`,
}

// nodeHistory are bodies whose nodes a target that decoded another of
// them holds: a domain or a name the next node leaves out, the same name
// in another domain, a node that leaves the compact pass after it filled
// a field, and fleets that grow and shrink.
var nodeHistory = []string{
	`{"fleet":[{"name":"a","p_crash":0.1,"p_byz":0.2,"domain":"z"},{"name":"b","p_crash":0.3,"p_byz":0.4,"domain":"y"}]}`,
	`{"fleet":[{"name":"a","p_crash":0.1,"p_byz":0.2},{"name":"b","p_crash":0.3,"p_byz":0.4}]}`,
	`{"fleet":[{"name":"a","p_crash":0.1,"p_byz":0.2,"domain":"y"},{"name":"b","p_crash":0.3,"p_byz":0.4,"domain":"z"}]}`,
	`{"fleet":[{"p_crash":0.1,"p_byz":0.2,"domain":"z"},{"p_crash":0.3,"p_byz":0.4,"domain":"y"},{"name":"c","p_crash":0.5,"p_byz":0}]}`,
	`{"fleet":[{"name":"a","p_crash":0.1,"p_byz":0.2,"domain":null},{"name":"b","p_crash":0.3,"p_byz":0.4,"domain":"y" }]}`,
	`{"fleet":[{"name":"\u0061","p_crash":0.1,"p_byz":0.2,"domain":"z"}]}`,
}

// dirtyBodies are the seed bodies diffDecode leaves a target dirty with.
var dirtyBodies = func() [][]byte {
	var out [][]byte
	for _, corpus := range [][]string{analyzeFuzzSeeds, sweepFuzzSeeds, tailFuzzSeeds, optimizeFuzzSeeds, batchFuzzSeeds, decodeEdgeCases} {
		for _, s := range corpus {
			out = append(out, []byte(s))
		}
	}
	return append(out, hotBody, churnBody, coldBody, batchBig)
}()

// FuzzDecodeMatchesReference is the differential oracle of the request
// decoder: every input goes through decodeRequest and decodeReference as
// each of the five request types, and through decodeRequest again into a
// target left dirty by another seed body.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, corpus := range [][]string{analyzeFuzzSeeds, sweepFuzzSeeds, tailFuzzSeeds, optimizeFuzzSeeds, batchFuzzSeeds, decodeEdgeCases} {
		for _, s := range corpus {
			f.Add([]byte(s))
		}
	}
	for _, b := range [][]byte{hotBody, churnBody, coldBody, batchBig} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffDecode[AnalyzeRequest](t, data)
		diffDecode[SweepRequest](t, data)
		diffDecode[OptimizeRequest](t, data)
		diffDecode[TailRequest](t, data)
		diffDecode[BatchRequest](t, data)
	})
}

// TestCompactNodeCoversNodeSpec keeps the compact pass on the node's
// whole wire spelling: a NodeSpec with every field set, as json.Marshal
// writes it, every node of the benchmark's shapes and each of
// compactNodes must decode in one pass to what encoding/json makes of it
// — so a field added to NodeSpec without a token in compactNode fails
// here, not as every node quietly taking the walk. Cut short at any byte,
// each must leave the pass instead.
func TestCompactNodeCoversNodeSpec(t *testing.T) {
	full, err := json.Marshal(populated(reflect.TypeOf(NodeSpec{})).Interface())
	if err != nil {
		t.Fatal(err)
	}
	nodes := [][]byte{full}
	for _, body := range [][]byte{hotBody, churnBody, coldBody} {
		var req struct{ Fleet []json.RawMessage }
		if err := json.Unmarshal(body, &req); err != nil || len(req.Fleet) == 0 {
			t.Fatalf("benchmark shape: %d nodes, %v", len(req.Fleet), err)
		}
		for _, node := range req.Fleet {
			nodes = append(nodes, node)
		}
	}
	for _, node := range compactNodes {
		nodes = append(nodes, []byte(node))
	}
	for _, node := range nodes {
		var want NodeSpec
		if err := json.Unmarshal(node, &want); err != nil {
			t.Fatal(err)
		}
		d := decoder{data: node}
		var got NodeSpec
		if !d.compactNode(&got, &NodeSpec{Name: "old", Domain: "old"}) || d.pos != len(node) {
			t.Errorf("%s: compact pass gave up at offset %d", node, d.pos)
		} else if got != want {
			t.Errorf("%s: compact pass decodes %+v, encoding/json %+v", node, got, want)
		}
		for k := range node {
			d := decoder{data: node[:k]}
			if d.compactNode(new(NodeSpec), new(NodeSpec)) {
				t.Errorf("%s cut to %d bytes: compact pass accepts it", node, k)
			}
		}
	}
}

// TestCompactNodeExits: every compactNodeExits spelling leaves the pass,
// so the seeds that carry them into FuzzDecodeMatchesReference test the
// walk after it.
func TestCompactNodeExits(t *testing.T) {
	for _, node := range compactNodeExits {
		d := decoder{data: []byte(node)}
		if d.compactNode(new(NodeSpec), new(NodeSpec)) {
			t.Errorf("%s: compact pass accepts it", node)
		}
	}
}

// TestDecodeNodeHistory decodes each nodeHistory body into a target that
// decoded each other one before it: the answer must be the fresh one.
func TestDecodeNodeHistory(t *testing.T) {
	for _, prev := range nodeHistory {
		for _, next := range nodeHistory {
			var fresh, pooled AnalyzeRequest
			if err := decodeRequest([]byte(next), &fresh); err != nil {
				t.Fatalf("%s: %v", next, err)
			}
			if err := decodeRequest([]byte(prev), &pooled); err != nil {
				t.Fatalf("%s: %v", prev, err)
			}
			if err := decodeRequest([]byte(next), &pooled); err != nil || !reflect.DeepEqual(pooled, fresh) {
				t.Errorf("%s after %s: %+v (%v), fresh %+v", next, prev, pooled.Fleet, err, fresh.Fleet)
			}
		}
	}
}

// TestDecodeErrorTexts pins the wording of the refusals: clients read them
// in 400 bodies, each names the field path and the byte offset.
func TestDecodeErrorTexts(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{``, `empty body (offset 0)`},
		{`{"model":{"protocol":"raft","n":3},"p":0.01,"bogus":1}`, `unknown field "bogus" (offset 44)`},
		{`{"fleet":[{"name":"a"},{"nmae":"b"}]}`, `fleet[1]: unknown field "nmae" (offset 24)`},
		{`{"p":0.5,"p":0.01}`, `duplicate field "p" (offset 9)`},
		{`{"fleet":[{"name":"a","p_crash":0.1}],"fleet":[{"p_byz":0.2}]}`, `duplicate field "fleet" (offset 38)`},
		{`{"model":{"n":3,"N":4}}`, `model: duplicate field "n" (offset 16)`},
		{`{"p":0.5} {"p":0.5}`, `trailing data after the request object (offset 10)`},
		{`{"fleet":[{},{},{},{"p_crash":"0.1"}]}`, `fleet[3].p_crash: want a number, got a string (offset 30)`},
		{`{"model":[]}`, `model: want an object, got an array (offset 9)`},
		{`{"domains":[{"name":7}]}`, `domains[0].name: want a string, got a number (offset 20)`},
		{`{"debug":"yes"}`, `debug: want a boolean, got a string (offset 9)`},
		{`{"fleet":{}}`, `fleet: want an array, got an object (offset 9)`},
		{`{"model":{"n":3.0}}`, `model.n: number 3.0 is not an integer that fits an int64 (offset 14)`},
		{`{"p":1e999}`, `p: number 1e999 does not fit a float64 (offset 5)`},
		{`{"p":01}`, `invalid character '1' after an object field (want ',' or '}') (offset 6)`},
		{`{"p":0.5`, `unexpected end of body after an object field (want ',' or '}') (offset 8)`},
		{`{"p":.5}`, `p: invalid character '.' looking for a number (offset 5)`},
		{"{\"model\":{\"protocol\":\"a\nb\"}}", `model.protocol: invalid character '\n' in a string (control characters must be escaped) (offset 23)`},
		{`[1]`, `want an object, got an array (offset 0)`},
	} {
		var req AnalyzeRequest
		err := decodeRequest([]byte(tc.body), &req)
		if err == nil || !isClientError(err) || err.Error() != "bad JSON body: "+tc.want {
			t.Errorf("%s:\n got %v\nwant bad JSON body: %s", tc.body, err, tc.want)
		}
	}
	// Through a nested request type, the path starts at the body's root.
	var batch BatchRequest
	err := decodeRequest([]byte(`{"items":[{},{"tail":{"seed":1.5}}]}`), &batch)
	if want := `bad JSON body: items[1].tail.seed: number 1.5 is not an integer that fits an int64 (offset 29)`; err == nil || err.Error() != want {
		t.Errorf("batch path:\n got %v\nwant %s", err, want)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDecodeCostPins holds the decoder's gain where no clock is involved:
// on each benchmark shape it allocates at most half the reference's bytes
// per body, in no more allocations. The reference reads the body into a
// buffer of its own on every call; the handler's read goes into a pooled
// one, which is left out here because sync.Pool drops entries at random
// under -race (BenchmarkDecode times both sides from an io.Reader).
func TestDecodeCostPins(t *testing.T) {
	for _, shape := range decodeShapes {
		ref := func() {
			var req AnalyzeRequest
			if err := decodeReference(bytes.NewReader(shape.body), &req); err != nil {
				t.Fatal(err)
			}
		}
		cur := func() {
			var req AnalyzeRequest
			if err := decodeRequest(shape.body, &req); err != nil {
				t.Fatal(err)
			}
		}
		refAllocs, curAllocs := testing.AllocsPerRun(50, ref), testing.AllocsPerRun(50, cur)
		refBytes, curBytes := bytesPerRun(50, ref), bytesPerRun(50, cur)
		t.Logf("%s (%d B): reference %.0f allocs / %.0f B, decoder %.0f allocs / %.0f B",
			shape.name, len(shape.body), refAllocs, refBytes, curAllocs, curBytes)
		if curAllocs > refAllocs {
			t.Errorf("%s: %.0f allocations per body, the reference makes %.0f", shape.name, curAllocs, refAllocs)
		}
		if curBytes > refBytes/2 {
			t.Errorf("%s: %.0f bytes per body, want at most half the reference's %.0f", shape.name, curBytes, refBytes)
		}
	}
}

// TestDecodeAllocationIsBoundedByBody: model.n is only a hint for sizing the
// fleet, and hints are paid from an allowance the body's length sets — a
// batch whose every item announces 1024 nodes and sends none must not cost
// 48 KiB an item (8 MiB of these would be 9 GB live in req.Items).
func TestDecodeAllocationIsBoundedByBody(t *testing.T) {
	body := []byte(`{"items":[` + strings.Repeat(`{"analyze":{"model":{"n":1024},"fleet":[]}},`, 20000) + `{}]}`)
	decodeWith := func(decode func() error) func() {
		return func() {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cur := bytesPerRun(3, decodeWith(func() error { return decodeRequest(body, new(BatchRequest)) }))
	ref := bytesPerRun(3, decodeWith(func() error { return decodeReference(bytes.NewReader(body), new(BatchRequest)) }))
	t.Logf("%d B body: decoder allocates %.0f B (%.1f per body byte), reference %.0f B", len(body), cur, cur/float64(len(body)), ref)
	// The values themselves are about 7 bytes per body byte here (a 128-byte
	// AnalyzeRequest and a 32-byte BatchItem, appended, per 44-byte item),
	// the spent allowance 3 more; 48 KiB an item would be 1100.
	if cur > 12*float64(len(body)) {
		t.Errorf("decoder allocates %.0f B for a %d B body, want at most 12 per body byte (reference: %.0f B)", cur, len(body), ref)
	}
	var req BatchRequest
	if err := decodeRequest(body, &req); err != nil || len(req.Items) != 20001 || req.Items[0].Analyze.Fleet == nil || len(req.Items[0].Analyze.Fleet) != 0 {
		t.Errorf("decoded %d items, err %v; want 20001, the first with an empty non-nil fleet", len(req.Items), err)
	}
}

// BenchmarkDecode times both decoders on the benchmark's analyze shapes,
// each from an io.Reader over the body to a filled AnalyzeRequest: a fresh
// target per body, and (reused) the one target handlePost's pool keeps.
func BenchmarkDecode(b *testing.B) {
	decodeBodyErr := func(r io.Reader, v any) error {
		buf := getBody()
		defer putBody(buf)
		if _, err := buf.ReadFrom(r); err != nil {
			return err
		}
		return decodeRequest(buf.Bytes(), v)
	}
	for _, shape := range decodeShapes {
		for _, side := range []struct {
			name   string
			decode func(io.Reader, any) error
			reuse  bool
		}{{"ref", decodeReference, false}, {"new", decodeBodyErr, false}, {"reused", decodeBodyErr, true}} {
			b.Run(shape.name+"/"+side.name, func(b *testing.B) {
				b.SetBytes(int64(len(shape.body)))
				b.ReportAllocs()
				var pooled AnalyzeRequest
				for i := 0; i < b.N; i++ {
					var fresh AnalyzeRequest
					req := &fresh
					if side.reuse {
						req = &pooled
					}
					if err := side.decode(bytes.NewReader(shape.body), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBodyOverLimitIs413: one byte over an endpoint's body limit is a 413
// that names the limit, counted and recorded like any client error; a body
// of exactly the limit is still judged on its JSON.
func TestBodyOverLimitIs413(t *testing.T) {
	srv, ts := newTestServer(t)
	model := `"model":{"protocol":"raft","n":3},"p":0.01`
	for _, tc := range []struct {
		endpoint, body string
		limit          int
	}{
		{"analyze", `{` + model + `}`, maxBodyBytes},
		{"sweep", `{"protocol":"raft","ns":[3],"ps":[0.01]}`, maxBodyBytes},
		{"optimize", `{` + model + `,"budget":1,"curve":{"floor_frac":0.1,"scale":0.25}}`, maxBodyBytes},
		{"tail", `{` + model + `,"event":"not_live"}`, maxBodyBytes},
		{"batch", `{"items":[{"analyze":{` + model + `}}]}`, maxBatchBodyBytes},
	} {
		url := ts.URL + "/v1/" + tc.endpoint
		pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
		clientErrors := srv.m.endpoints[tc.endpoint].codes["4xx"].Load()

		resp, b := postJSON(t, url, pad(tc.body, tc.limit+1))
		if want := fmt.Sprintf("exceeds the %d-byte limit", tc.limit); resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), want) {
			t.Errorf("%s: limit+1 bytes: status %d (%s), want 413 %q", tc.endpoint, resp.StatusCode, b, want)
		}
		if resp, b := postJSON(t, url, pad(tc.body, tc.limit)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: a valid body of exactly the limit: status %d (%.200s), want 200", tc.endpoint, resp.StatusCode, b)
		}
		if resp, b := postJSON(t, url, pad(tc.body, tc.limit-1)+"]"); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "trailing data") {
			t.Errorf("%s: an invalid body of exactly the limit: status %d (%.200s), want 400 trailing data", tc.endpoint, resp.StatusCode, b)
		}

		if got := srv.m.endpoints[tc.endpoint].codes["4xx"].Load() - clientErrors; got != 2 {
			t.Errorf("%s: 4xx counter moved by %d, want 2 (the 413 and the 400)", tc.endpoint, got)
		}
		var traces TracesResponse
		getJSON(t, ts.URL+"/v1/traces?status=413&endpoint="+tc.endpoint, &traces)
		if len(traces.Traces) != 1 || traces.Traces[0].Keep != "error" || !strings.Contains(traces.Traces[0].Error, "byte limit") {
			t.Errorf("%s: flight recorder holds %+v for the 413, want one error trace with its reason", tc.endpoint, traces.Traces)
		}
	}
}
