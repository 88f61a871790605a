package authz

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// nastyStrings exercises every escaping branch of appendJSONString.
var nastyStrings = []string{
	"",
	"plain ascii",
	`quote " and \ backslash`,
	"<script>&amp;</script>",
	"newline\nreturn\rtab\t",
	"nul\x00unit\x1fesc\x1b",
	"ünïcødé ☃ 中文",
	"line sep \u2028 para sep \u2029",
	"invalid \xff\xfe utf8 \x80",
	"trailing continuation \xc3",
	"mixed <b>\n\"&\"</b> \u2028\xffend",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, s := range nastyStrings {
		check(s)
	}
	// Deterministic random byte strings sweep the branch combinations.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		check(string(b))
	}
}

// TestRequestBodyInjective: request components whose users differ only
// in bytes that are not UTF-8 have different signed forms, so a signature
// over one does not verify as the other. (A JSON encoding maps both
// invalid bytes to U+FFFD and would sign them alike.)
func TestRequestBodyInjective(t *testing.T) {
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SignRequest("a\xff", 100, acl.Write, "O", []byte("v2"), kp)
	if err != nil {
		t.Fatal(err)
	}
	sig, ok := new(big.Int).SetString(r.SigS, 16)
	if !ok {
		t.Fatalf("signature %q is not hex", r.SigS)
	}
	if err := sharedrsa.Verify(appendRequestBody(nil, &r), kp.Public(), sharedrsa.Signature{S: sig}); err != nil {
		t.Fatal(err)
	}
	r.User = "a\xfe"
	if err := sharedrsa.Verify(appendRequestBody(nil, &r), kp.Public(), sharedrsa.Signature{S: sig}); err == nil {
		t.Fatalf("request by %q verifies as %q", "a\xff", r.User)
	}
}

// recordingSigner keeps the bytes it is asked to sign and signs nothing.
type recordingSigner struct{ msgs [][]byte }

func (*recordingSigner) Public() sharedrsa.PublicKey {
	return sharedrsa.PublicKey{N: big.NewInt(101), E: big.NewInt(3)}
}

func (r *recordingSigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	r.msgs = append(r.msgs, bytes.Clone(msg))
	return sharedrsa.Signature{S: big.NewInt(1)}, nil
}

// TestSignedKindTagsDistinct: the first field of every signed form — the
// nine certificate and CRL kinds and the request component — is a kind
// tag that no other kind uses. That is the domain separation that keeps a
// user's request signature from verifying as a certificate, and one
// certificate kind from verifying as another.
func TestSignedKindTagsDistinct(t *testing.T) {
	rec := &recordingSigner{}
	sub := pki.BoundSubject{Name: "alice", KeyID: "k-alice"}
	key := rec.Public()
	var errs []error
	keep := func(_ any, err error) { errs = append(errs, err) }
	keep(pki.Issue(pki.Identity{Issuer: "CA1", Subject: "alice", SubjectKey: pki.NewKeyInfo(key), KeyID: key.KeyID()}, rec))
	keep(pki.Issue(pki.Attribute{Group: "G", Subject: sub}, rec))
	keep(pki.Issue(pki.ThresholdAttribute{Group: "G", M: 1, Subjects: []pki.BoundSubject{sub}}, rec))
	keep(pki.Issue(pki.GroupLink{Sub: "G1", Sup: "G2"}, rec))
	keep(pki.Issue(pki.IdentityRevocation{Subject: "alice", KeyID: "k-alice"}, rec))
	keep(pki.Issue(pki.Delegation{Subject: sub, Group: "G", Perms: "*"}, rec))
	keep(pki.Issue(pki.GroupGraphLink{Sub: "G1", Sup: "G2"}, rec))
	rev, err := pki.Issue(pki.Revocation{Group: "G", Subjects: []pki.BoundSubject{sub}}, rec)
	keep(rev, err)
	reg := pki.NewRevocationRegistry("RA", rec)
	reg.Add(rev)
	keep(reg.Publish(1))
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	forms := append(rec.msgs, appendRequestBody(nil, &UserRequest{User: "alice", Op: acl.Read, Object: "O"}))
	if len(forms) != 10 {
		t.Fatalf("%d signed forms, want 10", len(forms))
	}
	seen := map[string]int{}
	for i, b := range forms {
		n, k := binary.Uvarint(b)
		if k <= 0 || n == 0 || uint64(len(b)-k) < n {
			t.Fatalf("form %d does not start with a tag: %q", i, b)
		}
		tag := string(b[k : k+int(n)])
		if j, dup := seen[tag]; dup {
			t.Errorf("forms %d and %d share the tag %q", j, i, tag)
		}
		seen[tag] = i
	}
	if _, ok := seen[tagRequest]; !ok {
		t.Errorf("no form starts with the request tag %q: %v", tagRequest, seen)
	}
}

// wireDecision is the struct AppendDecisionJSON is contractually
// byte-identical to under json.Marshal.
type wireDecision struct {
	Allowed    bool   `json:"allowed"`
	Group      string `json:"group,omitempty"`
	Reason     string `json:"reason,omitempty"`
	DeniedStep string `json:"deniedStep,omitempty"`
	RequestID  string `json:"requestId,omitempty"`
	Data       []byte `json:"data,omitempty"`
}

func TestAppendDecisionJSONMatchesEncodingJSON(t *testing.T) {
	cases := []Decision{
		{},
		{Allowed: true, Group: "G_write", Reason: "Group(G_write) says_100 write", RequestID: "P-000001", Data: []byte("genome v1")},
		{Allowed: false, Group: "G_read", Reason: `denied: "stale" <cert> & more`, DeniedStep: StepFreshness, RequestID: "P-000002"},
		{Allowed: true, Data: []byte{0x00, 0x01, 0xfe}},
		{Allowed: false, Reason: "line\u2028sep \xff invalid"},
	}
	for i, d := range cases {
		want, err := json.Marshal(wireDecision{
			Allowed: d.Allowed, Group: d.Group, Reason: d.Reason,
			DeniedStep: d.DeniedStep, RequestID: d.RequestID, Data: d.Data,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendDecisionJSON(nil, &d); string(got) != string(want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAppendDecisionJSONZeroAlloc pins the zero-allocation contract:
// encoding into a pre-sized buffer must not allocate at all.
func TestAppendDecisionJSONZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	d := Decision{Allowed: true, Group: "G_write", Reason: "Group(G_write) says_100 (\"write\", \"O\")",
		RequestID: "P-012345", Data: []byte("genome v2 payload")}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendDecisionJSON(buf[:0], &d)
	}); allocs != 0 {
		t.Errorf("AppendDecisionJSON allocates %.0f/op into a pre-sized buffer, want 0", allocs)
	}
	r := UserRequest{User: "User_D1", At: 100, Op: acl.Write, Object: "O", Payload: []byte("payload")}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = appendRequestBody(buf[:0], &r)
	}); allocs != 0 {
		t.Errorf("appendRequestBody allocates %.0f/op into a pre-sized buffer, want 0", allocs)
	}
}
