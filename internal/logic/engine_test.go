package logic

import (
	"fmt"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

// figure1 is the coalition scenario of Figure 1 / Section 4.3, built as
// idealized messages: three domains D1–D3 with identity CAs CA1–CA3, a
// coalition AA whose private key is shared by the domains, a server P, and
// three users granted 2-of-3 write access to Object O via group G_write.
type figure1 struct {
	eng     *Engine
	clk     *clock.Clock
	caKeys  map[string]KeySpeaksFor // CA name -> believed key ⇒ CA
	aaKey   KeySpeaksFor            // KAA ⇒ {D1,D2,D3}(3,3)
	cpUsers CompoundPrincipal       // {U1|K1,U2|K2,U3|K3}(2,3)
	idCerts map[string]Signed       // user -> identity certificate
	acCert  Signed                  // threshold attribute certificate
}

func newFigure1(t *testing.T) *figure1 {
	t.Helper()
	clk := clock.New(100)
	eng := NewEngine("P", clk)

	domains := CP(P("D1"), P("D2"), P("D3")).WithThreshold(3)
	aaKey := KeySpeaksFor{K: "KAA", T: During(0, 10_000).On("P"), Who: domains}
	eng.Assume(aaKey, "statement 1: KAA ⇒ [t*,t],P CP(3,3)")
	eng.Assume(MembershipJurisdiction{Authority: P("AA"), AuthorityName: "AA"},
		"statements 2–3: AA controls group membership")
	eng.Assume(SaysTimeJurisdiction{Authority: P("AA"), Since: 0, Server: "P"},
		"statements 4–5: AA controls accuracy time of its certificates")
	// RA is authorized to provide revocation information on behalf of AA.
	eng.Assume(KeySpeaksFor{K: "KRA", T: During(0, 10_000).On("P"), Who: P("RA")},
		"KRA ⇒ RA")
	eng.Assume(MembershipJurisdiction{Authority: P("RA"), AuthorityName: "RA"},
		"RA provides revocation information on behalf of AA")
	eng.Assume(SaysTimeJurisdiction{Authority: P("RA"), Since: 0, Server: "P"},
		"RA says-time jurisdiction")

	caKeys := make(map[string]KeySpeaksFor, 3)
	for _, ca := range []string{"CA1", "CA2", "CA3"} {
		k := KeySpeaksFor{K: KeyID("K" + ca), T: During(0, 10_000).On("P"), Who: P(ca)}
		eng.Assume(k, "K"+ca+" ⇒ "+ca)
		eng.Assume(KeyJurisdiction{CA: P(ca)}, "statements 6–11: "+ca+" key jurisdiction")
		eng.Assume(SaysTimeJurisdiction{Authority: P(ca), Since: 0, Server: "P"},
			ca+" says-time jurisdiction")
		caKeys[ca] = k
	}

	// Identity certificates: ⟦CAi says_tCAi (Kui ⇒ [tb,te],CAi User_Di)⟧_KCAi⁻¹.
	idCerts := make(map[string]Signed, 3)
	for i, u := range []string{"User_D1", "User_D2", "User_D3"} {
		ca := []string{"CA1", "CA2", "CA3"}[i]
		body := KeySpeaksFor{K: KeyID("K" + u), T: During(50, 5_000), Who: P(u)}
		idCerts[u] = Sign(AsMessage(Says{Who: P(ca), T: At(90), X: AsMessage(body)}), KeyID("K"+ca))
	}

	// Threshold attribute certificate (Figure 2(a)):
	// ⟦AA says_tAA (CP'(2,3) ⇒ [tb',te'],AA G_write)⟧_KAA⁻¹.
	cpUsers := CP(
		P("User_D1").Bind("KUser_D1"),
		P("User_D2").Bind("KUser_D2"),
		P("User_D3").Bind("KUser_D3"),
	).WithThreshold(2)
	acBody := MemberOf{Who: cpUsers, T: During(50, 5_000), G: G("G_write")}
	// The AA distributes the certificate; the signature is by the shared
	// key KAA ("for ease of reading we say that AA signs messages with key
	// KAA as well").
	acCert := Sign(AsMessage(Says{Who: P("AA"), T: At(95), X: AsMessage(acBody)}), "KAA")

	return &figure1{
		eng:     eng,
		clk:     clk,
		caKeys:  caKeys,
		aaKey:   aaKey,
		cpUsers: cpUsers,
		idCerts: idCerts,
		acCert:  acCert,
	}
}

// aaSaysKey is the believed verification key used for AA's signatures in
// the engine: the paper treats AA's signature as made by the compound
// principal; the engine verifies it against a belief "KAA ⇒ AA" derived
// from statement 1. We install it here to keep the test focused.
func (f *figure1) aaVerifyKey() KeySpeaksFor {
	k := KeySpeaksFor{K: "KAA", T: During(0, 10_000).On("P"), Who: P("AA")}
	f.eng.Assume(k, "AA speaks with the shared key (Section 4.3 reading convention)")
	return k
}

func TestEngineVerifyIdentityCertificate(t *testing.T) {
	fx := newFigure1(t)
	got, _, err := fx.eng.VerifyCertificate(fx.idCerts["User_D1"], fx.caKeys["CA1"])
	if err != nil {
		t.Fatalf("verify identity certificate: %v", err)
	}
	ks, ok := got.(KeySpeaksFor)
	if !ok {
		t.Fatalf("conclusion = %T, want KeySpeaksFor", got)
	}
	if ks.K != "KUser_D1" || ks.Who.String() != "User_D1" {
		t.Errorf("statement 16 wrong: %s", ks)
	}
	if _, ok := fx.eng.Store().KeyFor("User_D1", 100); !ok {
		t.Error("derived key belief not stored")
	}
}

func TestEngineRejectsForgedCertificate(t *testing.T) {
	fx := newFigure1(t)
	// Certificate signed with the wrong CA key.
	body := KeySpeaksFor{K: "KUser_D1", T: During(50, 5_000), Who: P("User_D1")}
	forged := Sign(AsMessage(Says{Who: P("CA1"), T: At(90), X: AsMessage(body)}), "KCA2")
	if _, _, err := fx.eng.VerifyCertificate(forged, fx.caKeys["CA1"]); err == nil {
		t.Fatal("forged certificate accepted")
	}
}

func TestEngineRejectsIssuerMismatch(t *testing.T) {
	fx := newFigure1(t)
	// Certificate claims CA2 inside but is signed by CA1's key: the
	// accuracy step must refuse (signer ≠ named issuer).
	body := KeySpeaksFor{K: "KUser_D1", T: During(50, 5_000), Who: P("User_D1")}
	crossed := Sign(AsMessage(Says{Who: P("CA2"), T: At(90), X: AsMessage(body)}), "KCA1")
	if _, _, err := fx.eng.VerifyCertificate(crossed, fx.caKeys["CA1"]); err == nil {
		t.Fatal("issuer-mismatched certificate accepted")
	}
}

func TestEngineVerifyThresholdAttributeCertificate(t *testing.T) {
	fx := newFigure1(t)
	aaKey := fx.aaVerifyKey()
	got, _, err := fx.eng.VerifyCertificate(fx.acCert, aaKey)
	if err != nil {
		t.Fatalf("verify threshold AC: %v", err)
	}
	mem, ok := got.(MemberOf)
	if !ok {
		t.Fatalf("conclusion = %T, want MemberOf", got)
	}
	if mem.G != G("G_write") {
		t.Errorf("group = %s", mem.G)
	}
	cp, ok := mem.Who.(CompoundPrincipal)
	if !ok || cp.Threshold() != 2 || len(cp.Members()) != 3 {
		t.Errorf("subject = %s, want CP'(2,3)", mem.Who)
	}
}

// TestEngineFullWriteAuthorization reproduces the complete Figure 2(b)
// flow: messages 1-1 through 1-4 and derivation steps 1–4 of Section 4.3,
// ending in "G_write says write O" (statement 25).
func TestEngineFullWriteAuthorization(t *testing.T) {
	fx := newFigure1(t)
	eng := fx.eng

	// Step 1: verify the signing keys of User_D1 and User_D2
	// (messages 1-1, 1-2 → statements 16–17).
	if _, _, err := eng.VerifyCertificate(fx.idCerts["User_D1"], fx.caKeys["CA1"]); err != nil {
		t.Fatalf("message 1-1: %v", err)
	}
	if _, _, err := eng.VerifyCertificate(fx.idCerts["User_D2"], fx.caKeys["CA2"]); err != nil {
		t.Fatalf("message 1-2: %v", err)
	}

	// Step 2: establish group membership (message 1-3 → statement 22).
	aaKey := fx.aaVerifyKey()
	memF, memStep, err := eng.VerifyCertificate(fx.acCert, aaKey)
	if err != nil {
		t.Fatalf("message 1-3: %v", err)
	}
	mem := memF.(MemberOf)

	// Step 3: verify the signed request (message 1-4 → statements 23–24).
	writeO := NewTuple(Const{Value: "write"}, Const{Value: "O"})
	var utters []Says
	var utterSteps []int
	for _, u := range []string{"User_D1", "User_D2"} {
		req := Sign(AsMessage(Says{Who: P(u), T: At(100), X: writeO}), KeyID("K"+u))
		key, ok := eng.Store().KeyFor(u, fx.clk.Now())
		if !ok {
			t.Fatalf("no key belief for %s", u)
		}
		s, step, err := eng.VerifySignedRequest(req, key)
		if err != nil {
			t.Fatalf("message 1-4 (%s): %v", u, err)
		}
		utters = append(utters, s)
		utterSteps = append(utterSteps, step)
	}

	// Conclude: statement 25.
	gs, _, err := eng.ConcludeGroupSays(mem, memStep, utters, utterSteps)
	if err != nil {
		t.Fatalf("statement 25: %v", err)
	}
	if gs.G != G("G_write") || !MessageEqual(gs.X, writeO) {
		t.Errorf("G says = %s", gs)
	}

	// The derivation must be internally consistent and mention the key
	// axioms of the protocol.
	if err := eng.Proof().Check(); err != nil {
		t.Errorf("proof check: %v", err)
	}
	trace := eng.Proof().String()
	for _, rule := range []string{"A10", "A22", "A9", "A38"} {
		if !strings.Contains(trace, rule) {
			t.Errorf("proof trace missing axiom %s", rule)
		}
	}
}

// TestEngineWriteDeniedWithOneSigner checks the threshold: a write request
// signed by only one of the three users must be denied.
func TestEngineWriteDeniedWithOneSigner(t *testing.T) {
	fx := newFigure1(t)
	eng := fx.eng
	if _, _, err := eng.VerifyCertificate(fx.idCerts["User_D1"], fx.caKeys["CA1"]); err != nil {
		t.Fatal(err)
	}
	aaKey := fx.aaVerifyKey()
	memF, memStep, err := eng.VerifyCertificate(fx.acCert, aaKey)
	if err != nil {
		t.Fatal(err)
	}
	writeO := NewTuple(Const{Value: "write"}, Const{Value: "O"})
	req := Sign(AsMessage(Says{Who: P("User_D1"), T: At(100), X: writeO}), "KUser_D1")
	key, _ := eng.Store().KeyFor("User_D1", fx.clk.Now())
	s, step, err := eng.VerifySignedRequest(req, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ConcludeGroupSays(memF.(MemberOf), memStep, []Says{s}, []int{step}); err == nil {
		t.Fatal("write with one signer approved; threshold violated")
	}
}

// TestEngineRevocationReasoning reproduces the "Reasoning about
// revocation" example: after RA's revocation message at t7, the server can
// no longer derive the membership belief (statement 26).
func TestEngineRevocationReasoning(t *testing.T) {
	fx := newFigure1(t)
	eng := fx.eng
	aaKey := fx.aaVerifyKey()
	memF, _, err := eng.VerifyCertificate(fx.acCert, aaKey)
	if err != nil {
		t.Fatal(err)
	}
	mem := memF.(MemberOf)
	if _, ok := eng.Store().Holds(mem); !ok || eng.Store().Revoked(mem.Who, mem.G, fx.clk.Now()) {
		t.Fatal("membership should hold before revocation")
	}

	// Message 2: RA says ¬(CP'(2,3) ⇒ t',RA G_write), signed by KRA.
	fx.clk.Advance(10) // t7
	revBody := Not{F: MemberOf{Who: fx.cpUsers, T: During(50, 5_000), G: G("G_write")}}
	revMsg := Sign(AsMessage(Says{Who: P("RA"), T: At(fx.clk.Now()), X: AsMessage(revBody)}), "KRA")
	raKey, _ := eng.Store().KeyFor("RA", fx.clk.Now())
	if _, _, err := eng.VerifyCertificate(revMsg, raKey); err != nil {
		t.Fatalf("revocation message: %v", err)
	}

	// Statement 26: for t4 ≥ t8 the belief can no longer be obtained.
	fx.clk.Advance(1)
	if !eng.Store().Revoked(mem.Who, mem.G, fx.clk.Now()) {
		t.Fatal("membership derivable after revocation (believe-until-revoked violated)")
	}
	// Re-presenting the certificate must now be refused.
	if _, _, err := eng.VerifyCertificate(fx.acCert, aaKey); err == nil {
		t.Fatal("revoked certificate re-accepted")
	}
	// So is concluding from the membership believed before the revocation.
	want := fmt.Sprintf("group says: membership of %s in G_write revoked as of %s", mem.Who, fx.clk.Now())
	if _, _, err := eng.ConcludeGroupSays(mem, 0, nil, nil); err == nil || err.Error() != want {
		t.Fatalf("conclusion after revocation: err = %v, want %q", err, want)
	}
}

func TestEngineRevocationRequiresJurisdiction(t *testing.T) {
	fx := newFigure1(t)
	eng := fx.eng
	// An interloper without membership jurisdiction cannot revoke.
	eng.Assume(KeySpeaksFor{K: "KEvil", T: During(0, 10_000).On("P"), Who: P("Evil")}, "")
	revBody := Not{F: MemberOf{Who: fx.cpUsers, T: During(50, 5_000), G: G("G_write")}}
	revMsg := Sign(AsMessage(Says{Who: P("Evil"), T: At(100), X: AsMessage(revBody)}), "KEvil")
	key, _ := eng.Store().KeyFor("Evil", 100)
	// Evil lacks a says-time jurisdiction, so the accuracy step fails.
	if _, _, err := eng.VerifyCertificate(revMsg, key); err == nil {
		t.Fatal("revocation by unauthorized principal accepted")
	}
}

func TestEngineReadAuthorizationOneOfThree(t *testing.T) {
	// Figure 2(c)/(d): read needs only 1-of-3.
	fx := newFigure1(t)
	eng := fx.eng
	if _, _, err := eng.VerifyCertificate(fx.idCerts["User_D3"], fx.caKeys["CA3"]); err != nil {
		t.Fatal(err)
	}
	cpRead := CP(
		P("User_D1").Bind("KUser_D1"),
		P("User_D2").Bind("KUser_D2"),
		P("User_D3").Bind("KUser_D3"),
	).WithThreshold(1)
	acBody := MemberOf{Who: cpRead, T: During(50, 5_000), G: G("G_read")}
	ac := Sign(AsMessage(Says{Who: P("AA"), T: At(95), X: AsMessage(acBody)}), "KAA")
	aaKey := fx.aaVerifyKey()
	memF, memStep, err := eng.VerifyCertificate(ac, aaKey)
	if err != nil {
		t.Fatal(err)
	}
	readO := NewTuple(Const{Value: "read"}, Const{Value: "O"})
	req := Sign(AsMessage(Says{Who: P("User_D3"), T: At(100), X: readO}), "KUser_D3")
	key, _ := eng.Store().KeyFor("User_D3", fx.clk.Now())
	s, step, err := eng.VerifySignedRequest(req, key)
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := eng.ConcludeGroupSays(memF.(MemberOf), memStep, []Says{s}, []int{step})
	if err != nil {
		t.Fatalf("read 1-of-3: %v", err)
	}
	if gs.G != G("G_read") {
		t.Errorf("group = %s", gs.G)
	}
}

func TestEngineRequestSpeakerMismatch(t *testing.T) {
	fx := newFigure1(t)
	eng := fx.eng
	if _, _, err := eng.VerifyCertificate(fx.idCerts["User_D1"], fx.caKeys["CA1"]); err != nil {
		t.Fatal(err)
	}
	// Request body claims User_D2 but is signed with User_D1's key.
	writeO := Const{Value: "write O"}
	req := Sign(AsMessage(Says{Who: P("User_D2"), T: At(100), X: writeO}), "KUser_D1")
	key, _ := eng.Store().KeyFor("User_D1", fx.clk.Now())
	if _, _, err := eng.VerifySignedRequest(req, key); err == nil {
		t.Fatal("speaker/signature mismatch accepted")
	}
}

func TestEngineAssumeAndProofNumbering(t *testing.T) {
	clk := clock.New(0)
	eng := NewEngine("P", clk)
	id1 := eng.Assume(Prop{Name: "a"}, "first")
	id2 := eng.Assume(Prop{Name: "b"}, "second")
	if id1 != 1 || id2 != 2 {
		t.Errorf("step ids = %d, %d", id1, id2)
	}
	if st, ok := step(eng.Proof(), id2); !ok || st.Note != "second" {
		t.Errorf("step 2 = %+v, %v", st, ok)
	}
	if _, ok := step(eng.Proof(), 99); ok {
		t.Error("step 99 should not exist")
	}
}
