package authz

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// nastyPayload carries bytes JSON strings cannot hold verbatim (as in
// TestEveryVerbOverTheWire): a []byte payload crosses as base64.
var nastyPayload = []byte("v2 \xff\xfe\x00 <&> \"q\"  ")

// requestShapes builds one request of every shape the servers decode:
// threshold write and read, single-subject, delegated and a denied
// (below-threshold) write, plus a write whose object name JSON must
// escape and replace (<&>, NUL, invalid UTF-8).
func requestShapes(tb testing.TB) map[string]AccessRequest {
	tb.Helper()
	f := newFixture(tb)
	delegated := f.issueDelegation(tb, "", "User_D2", "G_read", 1, "read")
	return map[string]AccessRequest{
		"threshold write": f.writeRequest(tb, nastyPayload, "User_D1", "User_D2"),
		"threshold read":  f.thresholdRequest(tb, f.readAC, acl.Read, "O", nil, "User_D3"),
		"single-subject":  f.singleReadRequest(tb, "User_D1"),
		"delegated":       f.delegatedReadRequest(tb, "User_D2", delegated),
		"deny":            f.writeRequest(tb, []byte("x"), "User_D1"),
		"escaped strings": f.thresholdRequest(tb, f.writeAC, acl.Write, "O <&>\x00\xff ", []byte{}, "User_D1", "User_D3"),
	}
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// agreesWithEncodingJSON decodes data both ways and reports a mismatch.
func agreesWithEncodingJSON(tb testing.TB, data []byte) AccessRequest {
	tb.Helper()
	got, err := DecodeAccessRequest(string(data))
	if err != nil {
		tb.Fatalf("DecodeAccessRequest: %v\ninput: %s", err, data)
	}
	var want AccessRequest
	if err := json.Unmarshal(data, &want); err != nil {
		tb.Fatalf("DecodeAccessRequest accepted what encoding/json rejects (%v):\n%s", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("DecodeAccessRequest diverges from encoding/json\n got %+v\nwant %+v\ninput: %s", got, want, data)
	}
	return got
}

func TestDecodeAccessRequestMatchesEncodingJSON(t *testing.T) {
	for name, req := range requestShapes(t) {
		t.Run(name, func(t *testing.T) {
			compact := marshal(t, req)
			got := agreesWithEncodingJSON(t, compact)
			if name != "escaped strings" && !reflect.DeepEqual(got, req) {
				t.Errorf("round trip changed the request\n got %+v\nwant %+v", got, req)
			}
			var indented bytes.Buffer
			if err := json.Indent(&indented, compact, "\n", "\t "); err != nil {
				t.Fatal(err)
			}
			agreesWithEncodingJSON(t, indented.Bytes())
			// Keys in another order: a generic map re-marshals them sorted.
			var generic map[string]any
			if err := json.Unmarshal(compact, &generic); err != nil {
				t.Fatal(err)
			}
			agreesWithEncodingJSON(t, marshal(t, generic))
		})
	}
}

// TestDecodeAccessRequestEscapes covers the string escapes json.Marshal
// never writes for a request but a hand-written one may carry.
func TestDecodeAccessRequestEscapes(t *testing.T) {
	for _, lit := range []string{
		`"plain"`, `""`, `"\"\\\/\b\f\n\r\t"`, `"Aé☃"`,
		`"\ud83d\ude00 pair"`, `"\uD83D\uDE00 upper"`, `"\ud83d lone high"`, `"\ude00 lone low"`,
		`"\ud83dx"`, `"\ud83dA"`, `"end \ud83d"`, "\"raw \xff\xfe bytes\"", "\"\xed\xa0\x80 utf8 surrogate\"",
	} {
		data := []byte(`{"requests":[{"user":` + lit + `,"object":` + lit + `}]}`)
		req := agreesWithEncodingJSON(t, data)
		if req.Requests[0].User == "" && lit != `""` {
			t.Errorf("%s decoded empty", lit)
		}
	}
}

// TestDecodeAccessRequestRejects pins the fail-closed grammar: every
// input is an error, including the ones encoding/json would accept.
func TestDecodeAccessRequestRejects(t *testing.T) {
	valid := string(marshal(t, requestShapes(t)["threshold write"]))
	for _, tc := range []struct {
		name, data  string
		jsonAccepts bool // a documented strictness difference
	}{
		{"empty", "", false},
		{"truncated", valid[:len(valid)/2], false},
		{"trailing bytes", valid + "x", false},
		{"second object", valid + "{}", false},
		{"top-level null", "null", true},
		{"top-level array", "[]", false},
		{"unknown key", `{"extra":1,` + valid[1:], true},
		{"case-folded key", strings.Replace(valid, `"identities"`, `"Identities"`, 1), true},
		{"escaped key", strings.Replace(valid, `"identities"`, `"\u0069dentities"`, 1), true},
		{"duplicate key", `{"requests":[],` + valid[1:], true},
		{"string for a time", `{"requests":[{"at":"100"}]}`, false},
		{"exponent time", `{"requests":[{"at":1e3}]}`, false},
		{"fractional int", `{"threshold":{"cert":{"m":1.0}}}`, false},
		{"leading zero", `{"requests":[{"at":0100}]}`, false},
		{"time out of range", `{"requests":[{"at":9223372036854775808}]}`, false},
		{"bad base64", `{"requests":[{"payload":"!!!"}]}`, false},
		{"payload as array", `{"requests":[{"payload":[1,2]}]}`, true},
		{"null string", `{"requests":[{"user":null}]}`, true},
		{"null object", `{"threshold":null}`, true},
		{"null bool", `{"delegated":null}`, true},
		{"trailing comma", `{"requests":[],}`, false},
		{"array trailing comma", `{"requests":[{},]}`, false},
		{"raw control char", "{\"requests\":[{\"user\":\"a\x01\"}]}", false},
		{"bad escape", `{"requests":[{"user":"\x"}]}`, false},
		{"short \\u escape", `{"requests":[{"user":"\u12"}]}`, false},
		{"unterminated string", `{"requests":[{"user":"abc`, false},
		{"single quotes", `{'requests':[]}`, false},
		{"non-whitespace gap", "{\"requests\":\v[]}", false},
	} {
		if _, err := DecodeAccessRequest(tc.data); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.data)
		}
		var req AccessRequest
		if jerr := json.Unmarshal([]byte(tc.data), &req); (jerr == nil) != tc.jsonAccepts {
			t.Errorf("%s: encoding/json error %v, table says accepts=%v", tc.name, jerr, tc.jsonAccepts)
		}
	}
}

// genString draws a valid-UTF-8 string mixing plain ASCII with the
// characters json.Marshal escapes.
func genString(rng *rand.Rand) string {
	const pieces = "ab<>&\"\\\x00\x1f\n é☃ \U0001F600/"
	runes := []rune(pieces)
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteRune(runes[rng.Intn(len(runes))])
	}
	return b.String()
}

func genInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	default:
		return rng.Int63n(2000) - 1000
	}
}

// genSlice draws nil, empty, or up to six elements (spilling the
// decoder's four-element stack array).
func genSlice[T any](rng *rand.Rand, elem func(*rand.Rand) T) []T {
	n := rng.Intn(8) - 1
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(rng)
	}
	return out
}

func genSubject(rng *rand.Rand) pki.BoundSubject {
	return pki.BoundSubject{Name: genString(rng), KeyID: genString(rng)}
}

func genIdentity(rng *rand.Rand) pki.Signed[pki.Identity] {
	return pki.Signed[pki.Identity]{Cert: pki.Identity{
		Issuer: genString(rng), IssuedAt: clock.Time(genInt(rng)), Subject: genString(rng),
		SubjectKey: pki.KeyInfo{N: genString(rng), E: genString(rng)}, KeyID: genString(rng),
		NotBefore: clock.Time(genInt(rng)), NotAfter: clock.Time(genInt(rng)),
	}, SignerKey: genString(rng), SigS: genString(rng)}
}

func genUserRequest(rng *rand.Rand) UserRequest {
	r := UserRequest{User: genString(rng), At: clock.Time(genInt(rng)), Op: acl.Permission(genString(rng)),
		Object: genString(rng), SigS: genString(rng)}
	if rng.Intn(2) == 0 {
		r.Op = acl.Write
	}
	if n := rng.Intn(40); n > 0 { // omitempty: an empty payload decodes nil
		r.Payload = make([]byte, n)
		rng.Read(r.Payload)
	}
	return r
}

// genRequest draws an arbitrary AccessRequest that json.Marshal can
// carry unchanged (valid UTF-8, no empty non-nil payload).
func genRequest(rng *rand.Rand) AccessRequest {
	return AccessRequest{
		Identities: genSlice(rng, genIdentity),
		Threshold: pki.Signed[pki.ThresholdAttribute]{Cert: pki.ThresholdAttribute{
			Issuer: genString(rng), IssuedAt: clock.Time(genInt(rng)), Group: genString(rng), M: int(genInt(rng)),
			Subjects: genSlice(rng, genSubject), NotBefore: clock.Time(genInt(rng)), NotAfter: clock.Time(genInt(rng)),
		}, SignerKey: genString(rng), SigS: genString(rng)},
		SingleSubject: rng.Intn(2) == 0,
		Single: pki.Signed[pki.Attribute]{Cert: pki.Attribute{
			Issuer: genString(rng), IssuedAt: clock.Time(genInt(rng)), Group: genString(rng), Subject: genSubject(rng),
			NotBefore: clock.Time(genInt(rng)), NotAfter: clock.Time(genInt(rng)),
		}, SignerKey: genString(rng), SigS: genString(rng)},
		Delegated: rng.Intn(2) == 0,
		Delegation: pki.Signed[pki.Delegation]{Cert: pki.Delegation{
			Issuer: genString(rng), IssuedAt: clock.Time(genInt(rng)), Delegator: genString(rng), Subject: genSubject(rng),
			Group: genString(rng), Depth: int(genInt(rng)), Perms: genString(rng),
			NotBefore: clock.Time(genInt(rng)), NotAfter: clock.Time(genInt(rng)),
		}, SignerKey: genString(rng), SigS: genString(rng)},
		Requests: genSlice(rng, genUserRequest),
	}
}

// roundTrips checks DecodeAccessRequest(json.Marshal(x)) == x.
func roundTrips(t *testing.T, x AccessRequest) {
	t.Helper()
	data := marshal(t, x)
	got, err := DecodeAccessRequest(string(data))
	if err != nil {
		t.Fatalf("DecodeAccessRequest(json.Marshal(x)): %v\ninput: %s", err, data)
	}
	if !reflect.DeepEqual(got, x) {
		t.Fatalf("round trip diverges\n got %+v\nwant %+v\ninput: %s", got, x, data)
	}
}

func TestDecodeAccessRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		roundTrips(t, genRequest(rng))
	}
}

// FuzzDecodeAccessRequest is the differential oracle: whatever the
// decoder accepts, encoding/json accepts with a DeepEqual value, and a
// request drawn from the input round-trips through json.Marshal.
func FuzzDecodeAccessRequest(f *testing.F) {
	for _, req := range requestShapes(f) {
		data := marshal(f, req)
		f.Add(data)
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	f.Add([]byte(`{"requests":[{"user":"\ud83d\ude00\ud83d","payload":""}],"identities":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := DecodeAccessRequest(string(data)); err == nil {
			var want AccessRequest
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("accepted what encoding/json rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("diverges from encoding/json on %q\n got %+v\nwant %+v", data, got, want)
			}
		}
		h := fnv.New64a()
		h.Write(data)
		roundTrips(t, genRequest(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}

// decodeBudget counts the allocations a decode may make: one per
// non-empty string and one per non-nil slice of the decoded value.
func decodeBudget(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			return 1
		}
	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		n := 1
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				n += decodeBudget(v.Index(i))
			}
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += decodeBudget(v.Field(i))
		}
		return n
	}
	return 0
}

// bytesPerOp reports the mean heap bytes fn allocates per call.
func bytesPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestDecodeAccessRequestAllocs pins the decoder's memory contract on a
// 2-signer write: at most one allocation per string field plus one per
// slice, and no more bytes than encoding/json spends on the same input.
func TestDecodeAccessRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	data := marshal(t, requestShapes(t)["threshold write"])
	doc := string(data)
	req, err := DecodeAccessRequest(doc)
	if err != nil {
		t.Fatal(err)
	}
	budget := decodeBudget(reflect.ValueOf(req))
	allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeAccessRequest(doc) })
	if allocs > float64(budget) {
		t.Errorf("DecodeAccessRequest allocates %.0f/op, budget %d (strings + slices)", allocs, budget)
	}
	ours := bytesPerOp(200, func() { _, _ = DecodeAccessRequest(doc) })
	theirs := bytesPerOp(200, func() {
		var r AccessRequest
		_ = json.Unmarshal(data, &r)
	})
	t.Logf("2-signer write (%d B): %.0f allocs/op (budget %d), %.0f B/op vs encoding/json %.0f B/op",
		len(data), allocs, budget, ours, theirs)
	if ours > theirs {
		t.Errorf("DecodeAccessRequest allocates %.0f B/op, encoding/json %.0f B/op", ours, theirs)
	}
}

// TestDecodeAccessRequestRetainsNoDocument: the decoded request holds on
// to no byte of the document it was parsed from, so a decision may keep
// its fields (audit entry, proof, certificate cache) without pinning a
// request body. The document is padded with 8 MB of JSON whitespace;
// once it is dead, a collection must free them.
func TestDecodeAccessRequestRetainsNoDocument(t *testing.T) {
	data := marshal(t, requestShapes(t)["delegated"])
	const pad = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var doc strings.Builder
	doc.Grow(len(data) + pad)
	doc.Write(data[:1]) // '{', then the whitespace
	doc.WriteString(strings.Repeat(" ", pad))
	doc.Write(data[1:])
	req, err := DecodeAccessRequest(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	doc.Reset()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > pad/2 {
		t.Errorf("the decoded request keeps %d bytes of its %d-byte document alive", grown, pad+len(data))
	}
	runtime.KeepAlive(req)
}

func BenchmarkDecodeAccessRequest(b *testing.B) {
	shapes := requestShapes(b)
	for _, name := range []string{"threshold read", "threshold write"} {
		data := marshal(b, shapes[name])
		doc := string(data)
		b.Run(name+"/single-pass", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeAccessRequest(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r AccessRequest
				if err := json.Unmarshal(data, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
