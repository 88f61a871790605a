package logic

// Golden pin for certificate acceptance (Steps 1–2, Appendix E statements
// 15–22): for every certificate kind VerifyCertificate accepts — key
// binding, membership, group link, delegation, graph edge, membership
// revocation — the rendered proof of an acceptance and every refusal it
// can reach, with its text and whether it wraps ErrSchemaMismatch.
// testdata/accept_golden.txt was captured from the engine that spelled
// each kind's acceptance out as its own function; the one-table engine
// must reproduce it byte for byte.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

const acceptGoldenFile = "testdata/accept_golden.txt"

// acceptIssuers is the pinned trust base: a CA with key jurisdiction, a
// CA2 without it, an AA and a compound authority {D1,D2} with membership
// jurisdiction, and an XA with neither — each with a believed key and
// says-time jurisdiction, so its certificates pass A10 and accuracy and
// reach acceptance.
func acceptIssuers(eng *Engine) map[string]KeySpeaksFor {
	doms := CP(P("D1"), P("D2"))
	issuers := []Subject{P("CA"), P("CA2"), P("AA"), P("XA"), doms}
	keys := make(map[string]KeySpeaksFor, len(issuers))
	for _, who := range issuers {
		k := KeySpeaksFor{K: KeyID("K" + who.String()), T: During(0, 10_000).On("P"), Who: who}
		eng.Assume(k, "")
		eng.Assume(SaysTimeJurisdiction{Authority: who, Since: 0, Server: "P"}, "")
		keys[who.String()] = k
	}
	eng.Assume(KeyJurisdiction{CA: P("CA")}, "")
	eng.Assume(MembershipJurisdiction{Authority: P("AA"), AuthorityName: "AA"}, "")
	eng.Assume(MembershipJurisdiction{Authority: doms, AuthorityName: doms.String()}, "")
	return keys
}

// acceptCase is one certificate presented to VerifyCertificate after
// setup has run on the same engine.
type acceptCase struct {
	name   string
	setup  func(e *Engine, cert func(Subject, Formula) (Signed, KeySpeaksFor))
	issuer Subject
	body   Formula
}

func TestAcceptGolden(t *testing.T) {
	var (
		bob   = P("bob").Bind("Kbob")
		alice = P("alice").Bind("Kalice")
		g     = G("G_read")
		valid = During(50, 5_000)
		doms  = CP(P("D1"), P("D2"))
	)
	keyBody := KeySpeaksFor{K: "Kbob", T: valid, Who: P("bob")}
	memBody := MemberOf{Who: bob, T: valid, G: g}
	link := GroupSpeaksFor{Sub: G("G_sub"), T: valid, Sup: g}
	edge := GroupGraphEdge{Sub: G("G_sub"), T: valid, Depth: 1, Sup: g}
	root := func(depth int) Delegates {
		return Delegates{To: alice, G: g, Depth: depth, Perms: "read", T: valid}
	}
	chain := Delegates{To: bob, G: g, Depth: 0, Perms: "read", Path: "alice", T: valid}
	revocation := Not{F: MemberOf{Who: bob, T: valid, G: g}}
	revoke := func(who Subject) func(*Engine, func(Subject, Formula) (Signed, KeySpeaksFor)) {
		return func(e *Engine, _ func(Subject, Formula) (Signed, KeySpeaksFor)) {
			if _, _, err := e.Install(Not{F: MemberOf{Who: who, T: valid, G: g}}, nil, e.clk.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	grant := func(depth int) func(*Engine, func(Subject, Formula) (Signed, KeySpeaksFor)) {
		return func(e *Engine, cert func(Subject, Formula) (Signed, KeySpeaksFor)) {
			if _, _, err := e.VerifyCertificate(cert(P("AA"), root(depth))); err != nil {
				t.Fatal(err)
			}
		}
	}
	both := func(fs ...func(*Engine, func(Subject, Formula) (Signed, KeySpeaksFor))) func(*Engine, func(Subject, Formula) (Signed, KeySpeaksFor)) {
		return func(e *Engine, cert func(Subject, Formula) (Signed, KeySpeaksFor)) {
			for _, f := range fs {
				f(e, cert)
			}
		}
	}

	cases := []acceptCase{
		{name: "key/accept", issuer: P("CA"), body: keyBody},
		{name: "key/no-jurisdiction", issuer: P("CA2"), body: keyBody},
		{name: "key/revoked", issuer: P("CA"), body: keyBody,
			setup: func(e *Engine, _ func(Subject, Formula) (Signed, KeySpeaksFor)) { e.store.RevokeKey("Kbob", 100) }},
		{name: "key/compound-issuer", issuer: doms, body: keyBody},

		{name: "membership/accept-principal-issuer", issuer: P("AA"), body: memBody},
		{name: "membership/accept-compound-issuer", issuer: doms, body: MemberOf{Who: bob, T: valid, G: g}},
		{name: "membership/no-jurisdiction", issuer: P("XA"), body: memBody},
		{name: "membership/revoked", issuer: P("AA"), body: memBody, setup: revoke(bob)},

		{name: "group-link/accept", issuer: P("AA"), body: link},
		{name: "group-link/no-jurisdiction", issuer: P("XA"), body: link},
		{name: "group-link/compound-issuer", issuer: doms, body: link},

		{name: "delegation/accept-root", issuer: P("AA"), body: root(1)},
		{name: "delegation/accept-chain", issuer: P("AA"), body: chain, setup: grant(1)},
		{name: "delegation/no-jurisdiction", issuer: P("XA"), body: root(1)},
		{name: "delegation/compound-issuer", issuer: doms, body: root(1)},
		{name: "delegation/subject-revoked", issuer: P("AA"), body: root(1), setup: revoke(alice)},
		{name: "delegation/delegator-revoked", issuer: P("AA"), body: chain, setup: both(grant(1), revoke(P("alice")))},
		{name: "delegation/no-delegator-chain", issuer: P("AA"), body: chain},
		{name: "delegation/depth-exhausted", issuer: P("AA"), body: chain, setup: grant(0)},

		{name: "graph-edge/accept", issuer: P("AA"), body: edge},
		{name: "graph-edge/no-jurisdiction", issuer: P("XA"), body: edge},
		{name: "graph-edge/compound-issuer", issuer: doms, body: edge},

		{name: "revocation/accept", issuer: P("AA"), body: revocation},
		{name: "revocation/no-jurisdiction", issuer: P("XA"), body: revocation},
		{name: "revocation/compound-issuer", issuer: doms, body: revocation},
		{name: "revocation/non-membership-negation", issuer: P("AA"), body: Not{F: keyBody}},

		{name: "unsupported-body", issuer: P("AA"), body: Prop{Name: "x"}},
	}

	var b strings.Builder
	for _, c := range cases {
		eng := NewEngine("P", clock.New(100))
		keys := acceptIssuers(eng)
		cert := func(who Subject, body Formula) (Signed, KeySpeaksFor) {
			k := keys[who.String()]
			return Sign(AsMessage(Says{Who: who, T: At(90), X: AsMessage(body)}), k.K), k
		}
		if c.setup != nil {
			c.setup(eng, cert)
		}
		from := eng.Proof().Len()
		f, step, err := eng.VerifyCertificate(cert(c.issuer, c.body))
		fmt.Fprintf(&b, "== %s ==\n", c.name)
		if err != nil {
			fmt.Fprintf(&b, "refused: %v\nschema mismatch: %t\n", err, errors.Is(err, ErrSchemaMismatch))
		} else {
			fmt.Fprintf(&b, "believed: %s at step %d\n", f, step)
		}
		b.WriteString(eng.Proof().StringFrom(from))
	}
	got := b.String()

	want, err := os.ReadFile(acceptGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", acceptGoldenFile, i+1, g, w)
			}
		}
	}
}
