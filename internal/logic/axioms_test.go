package logic

import (
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

func TestA7PointInstantiation(t *testing.T) {
	ks := KeySpeaksFor{K: "K1", T: During(5, 15), Who: P("Q")}
	got, err := A7Point(ks, 10)
	if err != nil {
		t.Fatalf("A7: %v", err)
	}
	out, ok := got.(KeySpeaksFor)
	if !ok || out.T.Kind != AtTime || out.T.Time() != 10 {
		t.Errorf("A7 produced %s", got)
	}
	if _, err := A7Point(ks, 20); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A7 outside interval: err = %v", err)
	}
	// SomeOf-qualified premises give no per-time guarantee.
	ks2 := KeySpeaksFor{K: "K1", T: Sometime(5, 15), Who: P("Q")}
	if _, err := A7Point(ks2, 10); err == nil {
		t.Error("A7 should reject ⟨⟩ premises")
	}
}

func TestA7PointAllVariants(t *testing.T) {
	span := During(0, 9)
	fs := []Formula{
		Believes{Who: P("P"), T: span, F: Prop{Name: "x"}},
		Controls{Who: P("P"), T: span, F: Prop{Name: "x"}},
		Says{Who: P("P"), T: span, X: Const{Value: "m"}},
		Said{Who: P("P"), T: span, X: Const{Value: "m"}},
		Received{Who: P("P"), T: span, X: Const{Value: "m"}},
		MemberOf{Who: P("P"), T: span, G: G("g")},
	}
	for _, f := range fs {
		got, err := A7Point(f, 4)
		if err != nil {
			t.Errorf("A7 on %T: %v", f, err)
			continue
		}
		if got == nil {
			t.Errorf("A7 on %T: nil conclusion", f)
		}
	}
	if _, err := A7Point(Prop{Name: "x"}, 4); err == nil {
		t.Error("A7 on a proposition should fail")
	}
}

func TestA8Monotonicity(t *testing.T) {
	r := Received{Who: P("P"), T: At(3), X: Const{Value: "m"}}
	got, err := A8Received(r, 7)
	if err != nil || got.T.Time() != 7 {
		t.Errorf("A8a: %v %v", got, err)
	}
	if _, err := A8Received(r, 1); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A8a backwards: err = %v", err)
	}

	s := Said{Who: P("P"), T: At(3), X: Const{Value: "m"}}
	if got, err := A8Said(s, 9); err != nil || got.T.Time() != 9 {
		t.Errorf("A8b: %v %v", got, err)
	}

	f := Fresh{T: At(5), Who: "P", X: Const{Value: "n"}}
	if got, err := A8Fresh(f, 2); err != nil || got.T.Time() != 2 {
		t.Errorf("A8d: %v %v", got, err)
	}
	if _, err := A8Fresh(f, 9); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A8d forwards: err = %v", err)
	}
}

func TestA9Reduction(t *testing.T) {
	says := Says{Who: P("AA"), T: At(2), X: Const{Value: "m"}}
	inner := AtFormula{F: says, P: "P", T: At(1)}
	outer := AtFormula{F: inner, P: "P", T: At(5)}
	got, err := A9Reduce(outer)
	if err != nil {
		t.Fatalf("A9: %v", err)
	}
	at, ok := got.(AtFormula)
	if !ok || at.T.Time() != 5 || !FormulaEqual(at.F, says) {
		t.Errorf("A9 = %s", got)
	}
	// t2 < t1 must fail.
	bad := AtFormula{F: AtFormula{F: says, P: "P", T: At(9)}, P: "P", T: At(5)}
	if _, err := A9Reduce(bad); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A9 with t2<t1: err = %v", err)
	}
	// Different locating principals must fail.
	bad2 := AtFormula{F: AtFormula{F: says, P: "Q", T: At(1)}, P: "P", T: At(5)}
	if _, err := A9Reduce(bad2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A9 cross-principal: err = %v", err)
	}
	// Direct reduction of a localized says-formula (protocol step 8→9).
	direct := AtFormula{F: says, P: "P", T: Sometime(0, 4)}
	got2, err := A9Reduce(direct)
	if err != nil || !FormulaEqual(got2, says) {
		t.Errorf("A9 direct = %v, %v", got2, err)
	}
	// Non-says inner formulas are not reducible.
	bad3 := AtFormula{F: Prop{Name: "x"}, P: "P", T: At(1)}
	if _, err := A9Reduce(bad3); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A9 on proposition: err = %v", err)
	}
}

func TestA10OriginatorSimple(t *testing.T) {
	key := KeySpeaksFor{K: "Kq", T: During(0, 100), Who: P("Q")}
	msg := Sign(Const{Value: "hello"}, "Kq")
	rcv := Received{Who: P("P"), T: At(10), X: msg}
	said, saidSigned, err := A10Originator(key, rcv)
	if err != nil {
		t.Fatalf("A10: %v", err)
	}
	if said.Who.String() != "Q" || !MessageEqual(said.X, Const{Value: "hello"}) {
		t.Errorf("A10 said = %s", said)
	}
	if !MessageEqual(saidSigned.X, msg) {
		t.Errorf("A10 said-signed = %s", saidSigned)
	}
	if said.T.Observer != "P" {
		t.Errorf("A10 conclusion should be on P's clock, got %q", said.T.Observer)
	}
}

func TestA10OriginatorRejectsWrongKey(t *testing.T) {
	key := KeySpeaksFor{K: "Kq", T: During(0, 100), Who: P("Q")}
	rcv := Received{Who: P("P"), T: At(10), X: Sign(Const{Value: "m"}, "Kother")}
	if _, _, err := A10Originator(key, rcv); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("wrong key: err = %v", err)
	}
	rcv2 := Received{Who: P("P"), T: At(10), X: Const{Value: "unsigned"}}
	if _, _, err := A10Originator(key, rcv2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("unsigned: err = %v", err)
	}
}

func TestA10OriginatorRejectsExpiredKey(t *testing.T) {
	key := KeySpeaksFor{K: "Kq", T: During(0, 5), Who: P("Q")}
	rcv := Received{Who: P("P"), T: At(10), X: Sign(Const{Value: "m"}, "Kq")}
	if _, _, err := A10Originator(key, rcv); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("expired key: err = %v", err)
	}
}

func TestA10OriginatorThresholdNamesPlainCP(t *testing.T) {
	// Variant c: K ⇒ CP(m,n) ∧ P received X_{K^-1} ⊃ CP said X.
	cp := CP(P("D1"), P("D2"), P("D3")).WithThreshold(2)
	key := KeySpeaksFor{K: "KAA", T: During(0, 100), Who: cp}
	rcv := Received{Who: P("P"), T: At(3), X: Sign(Const{Value: "cert"}, "KAA")}
	said, _, err := A10Originator(key, rcv)
	if err != nil {
		t.Fatalf("A10c: %v", err)
	}
	want := CP(P("D1"), P("D2"), P("D3"))
	if said.Who.String() != want.String() {
		t.Errorf("A10c conclusion about %s, want plain %s", said.Who, want)
	}
}

func TestA12Reading(t *testing.T) {
	inner := Const{Value: "m"}
	rs := Received{Who: P("P"), T: At(1), X: Sign(inner, "K")}
	got, err := A12ReadSigned(rs)
	if err != nil || !MessageEqual(got.X, inner) {
		t.Errorf("A12: %v %v", got, err)
	}
	if _, err := A12ReadSigned(Received{Who: P("P"), T: At(1), X: inner}); err == nil {
		t.Error("A12 on unsigned should fail")
	}

}

func TestA15A17A20Saying(t *testing.T) {
	x0, x1 := Const{Value: "a"}, Const{Value: "b"}
	s := Said{Who: P("P"), T: At(1), X: NewTuple(x0, x1)}
	got, err := A15SaidComponent(s, 1)
	if err != nil || !MessageEqual(got.X, x1) {
		t.Errorf("A15: %v %v", got, err)
	}
	if _, err := A15SaidComponent(s, 2); err == nil {
		t.Error("A15 out of range should fail")
	}
	if _, err := A15SaidComponent(Said{Who: P("P"), T: At(1), X: x0}, 0); err == nil {
		t.Error("A15 on non-tuple should fail")
	}

	ss := Said{Who: P("P"), T: At(1), X: Sign(x0, "K")}
	got2, err := A17SaidSigned(ss)
	if err != nil || !MessageEqual(got2.X, x0) {
		t.Errorf("A17: %v %v", got2, err)
	}

	sy := Says{Who: P("P"), T: At(1), X: x0}
	if got3 := A20SaysToSaid(sy); !MessageEqual(got3.X, x0) || got3.Who.String() != "P" {
		t.Errorf("A20: %v", got3)
	}
}

func TestA21Freshness(t *testing.T) {
	nonce := Const{Value: "n42"}
	f := Fresh{T: At(1), Who: "P", X: nonce}
	comp := NewTuple(Const{Value: "req"}, nonce)
	got, err := A21Fresh(f, comp)
	if err != nil || !MessageEqual(got.X, comp) {
		t.Errorf("A21: %v %v", got, err)
	}
	if _, err := A21Fresh(f, Const{Value: "other"}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A21 independent message: err = %v", err)
	}
}

func TestA22Jurisdiction(t *testing.T) {
	body := MemberOf{Who: P("Q"), T: During(0, 9), G: G("g")}
	c := Controls{Who: P("AA"), T: During(0, 100).On("P"), F: body}
	s := Says{Who: P("AA"), T: At(5), X: AsMessage(body)}
	got, err := A22Jurisdiction(c, s)
	if err != nil {
		t.Fatalf("A22: %v", err)
	}
	if got.P != "P" {
		t.Errorf("A22 locale = %q, want P (the clock observer)", got.P)
	}
	if !FormulaEqual(got.F, body) {
		t.Errorf("A22 body = %s", got.F)
	}
	// Speaker must be the controller.
	s2 := Says{Who: P("Evil"), T: At(5), X: AsMessage(body)}
	if _, err := A22Jurisdiction(c, s2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A22 wrong speaker: err = %v", err)
	}
	// Utterance outside the jurisdiction interval fails.
	s3 := Says{Who: P("AA"), T: At(500), X: AsMessage(body)}
	if _, err := A22Jurisdiction(c, s3); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A22 time violation: err = %v", err)
	}
	// Controlled formula must equal the spoken formula.
	c2 := Controls{Who: P("AA"), T: During(0, 100), F: Prop{Name: "other"}}
	if _, err := A22Jurisdiction(c2, s); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A22 formula mismatch: err = %v", err)
	}
}

func TestA22DefaultLocale(t *testing.T) {
	body := Prop{Name: "x"}
	c := Controls{Who: P("AA"), T: At(5), F: body}
	s := Says{Who: P("AA"), T: At(5), X: AsMessage(body)}
	got, err := A22Jurisdiction(c, s)
	if err != nil {
		t.Fatalf("A22: %v", err)
	}
	if got.P != "AA" {
		t.Errorf("unqualified jurisdiction should localize at controller, got %q", got.P)
	}
}

func TestA34MemberSays(t *testing.T) {
	m := MemberOf{Who: P("Q"), T: During(0, 10), G: G("g")}
	s := Says{Who: P("Q"), T: At(5), X: Const{Value: "read O"}}
	got, err := A34MemberSays(m, s)
	if err != nil || got.G != G("g") {
		t.Errorf("A34: %v %v", got, err)
	}
	// Expired membership.
	sLate := Says{Who: P("Q"), T: At(11), X: Const{Value: "read O"}}
	if _, err := A34MemberSays(m, sLate); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("A34 expired: err = %v", err)
	}
	// Wrong speaker.
	s2 := Says{Who: P("R"), T: At(5), X: Const{Value: "read O"}}
	if _, err := A34MemberSays(m, s2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A34 wrong speaker: err = %v", err)
	}
	// Key-bound member must use A35, not A34.
	mb := MemberOf{Who: P("Q").Bind("K"), T: During(0, 10), G: G("g")}
	if _, err := A34MemberSays(mb, s); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A34 on bound member: err = %v", err)
	}
}

func TestA35SelectiveDistribution(t *testing.T) {
	m := MemberOf{Who: P("Q").Bind("Kq"), T: During(0, 10), G: G("g")}
	key := KeySpeaksFor{K: "Kq", T: During(0, 10), Who: P("Q")}
	content := Const{Value: "read O"}
	s := Says{Who: P("Q"), T: At(5), X: Sign(content, "Kq")}
	got, err := A35MemberSaysKeyBound(m, key, s)
	if err != nil {
		t.Fatalf("A35: %v", err)
	}
	if !MessageEqual(got.X, content) {
		t.Errorf("A35 content = %s", got.X)
	}
	// Each refusal is pinned by its own reason, so a check that a later
	// one backs up cannot weaken unnoticed. Signing with a different key
	// is exactly the unauthorized-privilege-retention problem selective
	// distribution solves.
	for _, c := range []struct {
		name string
		m    MemberOf
		key  KeySpeaksFor
		s    Says
		want string
		is   error
	}{
		{"unbound member", MemberOf{Who: P("Q"), T: During(0, 10), G: G("g")}, key, s,
			"A35: membership subject must be a key-bound principal", ErrSchemaMismatch},
		{"compound member", MemberOf{Who: CP(P("Q"), P("R")).WithKey("Kq"), T: During(0, 10), G: G("g")}, key, s,
			"A35: membership subject must be a key-bound principal", ErrSchemaMismatch},
		{"certificate for another subject", m, KeySpeaksFor{K: "Kq", T: During(0, 10), Who: P("R")}, s,
			"A35: key certificate subject R ≠ member Q", ErrSchemaMismatch},
		{"certificate for another key", m, KeySpeaksFor{K: "Kother", T: During(0, 10), Who: P("Q")}, s,
			"A35: certificate key Kother ≠ bound key Kq", ErrSchemaMismatch},
		{"signed with another key", m, key, Says{Who: P("Q"), T: At(5), X: Sign(content, "Kother")},
			"A35: request not signed with bound key Kq", ErrSchemaMismatch},
		{"unsigned", m, key, Says{Who: P("Q"), T: At(5), X: content},
			"A35: request not signed with bound key Kq", ErrSchemaMismatch},
		{"another speaker", m, key, Says{Who: P("R"), T: At(5), X: Sign(content, "Kq")},
			"A35: speaker R ≠ member Q", ErrSchemaMismatch},
		{"expired membership", m, key, Says{Who: P("Q"), T: At(11), X: Sign(content, "Kq")},
			"does not cover", ErrTimeMismatch},
		{"utterance of another speaker", m, key, Says{Who: P("Q"), T: At(5),
			X: Sign(MsgFormula{F: Says{Who: P("R"), T: At(5), X: content}}, "Kq")},
			"A35: utterance names a different speaker", ErrSchemaMismatch},
	} {
		_, err := A35MemberSaysKeyBound(c.m, c.key, c.s)
		if !errors.Is(err, c.is) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("A35 %s: err = %v, want %q (%v)", c.name, err, c.want, c.is)
		}
	}
}

func TestA36A37CompoundSays(t *testing.T) {
	cp := CP(P("A"), P("B"))
	m := MemberOf{Who: cp, T: During(0, 10), G: G("g")}
	s := Says{Who: cp, T: At(3), X: Const{Value: "m"}}
	if _, err := A36CompoundSays(m, s); err != nil {
		t.Errorf("A36: %v", err)
	}
	// Different member set fails.
	s2 := Says{Who: CP(P("A"), P("C")), T: At(3), X: Const{Value: "m"}}
	if _, err := A36CompoundSays(m, s2); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A36 different CP: err = %v", err)
	}

	cpk := CP(P("A"), P("B")).WithKey("Kcp")
	mk := MemberOf{Who: cpk, T: During(0, 10), G: G("g")}
	key := KeySpeaksFor{K: "Kcp", T: During(0, 10), Who: CP(P("A"), P("B"))}
	sk := Says{Who: CP(P("A"), P("B")), T: At(3), X: Sign(Const{Value: "m"}, "Kcp")}
	got, err := A37CompoundSaysKeyBound(mk, key, sk)
	if err != nil {
		t.Fatalf("A37: %v", err)
	}
	if !MessageEqual(got.X, Const{Value: "m"}) {
		t.Errorf("A37 content = %s", got.X)
	}
	skWrong := Says{Who: CP(P("A"), P("B")), T: At(3), X: Sign(Const{Value: "m"}, "Kx")}
	if _, err := A37CompoundSaysKeyBound(mk, key, skWrong); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("A37 wrong key: err = %v", err)
	}
	// A certificate binding Kcp to a compound principal with other
	// members speaks for them, not for the member.
	keyOther := KeySpeaksFor{K: "Kcp", T: During(0, 10), Who: CP(P("A"), P("C"))}
	if _, err := A37CompoundSaysKeyBound(mk, keyOther, sk); !errors.Is(err, ErrSchemaMismatch) ||
		!strings.Contains(err.Error(), "A37: key certificate subject mismatch") {
		t.Errorf("A37 certificate for other members: err = %v", err)
	}
}

func thresholdCP23() CompoundPrincipal {
	return CP(P("U1").Bind("K1"), P("U2").Bind("K2"), P("U3").Bind("K3")).WithThreshold(2)
}

func TestA38ThresholdSatisfied(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := NewTuple(Const{Value: "write"}, Const{Value: "O"})
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("U2"), T: At(5), X: Sign(content, "K2")},
	}
	got, err := A38Threshold(m, signers, 5)
	if err != nil {
		t.Fatalf("A38: %v", err)
	}
	if got.G != G("G_write") || !MessageEqual(got.X, content) {
		t.Errorf("A38 = %s", got)
	}
}

func TestA38ThresholdNotMet(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{{Who: P("U1"), T: At(5), X: Sign(content, "K1")}}
	if _, err := A38Threshold(m, signers, 5); !errors.Is(err, ErrThresholdNotMet) {
		t.Errorf("1 of 2 signers: err = %v", err)
	}
}

func TestA38RejectsWrongBoundKey(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("U2"), T: At(5), X: Sign(content, "K3")}, // U2 using U3's key
	}
	if _, err := A38Threshold(m, signers, 5); !errors.Is(err, ErrThresholdNotMet) {
		t.Errorf("wrong bound key must not count: err = %v", err)
	}
}

func TestA38RejectsDuplicateSigner(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("U1"), T: At(6), X: Sign(content, "K1")}, // same principal twice
	}
	if _, err := A38Threshold(m, signers, 6); !errors.Is(err, ErrThresholdNotMet) {
		t.Errorf("duplicate signer must count once: err = %v", err)
	}
}

func TestA38RejectsNonMember(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("Mallory"), T: At(5), X: Sign(content, "K2")},
	}
	if _, err := A38Threshold(m, signers, 5); !errors.Is(err, ErrThresholdNotMet) {
		t.Errorf("non-member must not count: err = %v", err)
	}
}

func TestA38RejectsDivergentContent(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(Const{Value: "write O"}, "K1")},
		{Who: P("U2"), T: At(5), X: Sign(Const{Value: "delete O"}, "K2")},
	}
	if _, err := A38Threshold(m, signers, 5); !errors.Is(err, ErrThresholdNotMet) {
		t.Errorf("divergent content must not count: err = %v", err)
	}
}

func TestA38ExpiredCertificate(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 4), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("U2"), T: At(5), X: Sign(content, "K2")},
	}
	if _, err := A38Threshold(m, signers, 5); !errors.Is(err, ErrTimeMismatch) {
		t.Errorf("expired certificate: err = %v", err)
	}
}

func TestA38AllThreeSigners(t *testing.T) {
	m := MemberOf{Who: thresholdCP23(), T: During(0, 100), G: G("G_write")}
	content := Const{Value: "write O"}
	signers := []Says{
		{Who: P("U1"), T: At(5), X: Sign(content, "K1")},
		{Who: P("U2"), T: At(5), X: Sign(content, "K2")},
		{Who: P("U3"), T: At(5), X: Sign(content, "K3")},
	}
	if _, err := A38Threshold(m, signers, 5); err != nil {
		t.Errorf("3 of 2-of-3 signers should pass: %v", err)
	}
}

func TestTimeLEHolds(t *testing.T) {
	if !(TimeLE{A: 1, B: 2}).Holds() {
		t.Error("1 ≤ 2 should hold")
	}
	if (TimeLE{A: 3, B: 2}).Holds() {
		t.Error("3 ≤ 2 should not hold")
	}
	if got := (TimeLE{A: 1, B: clock.Infinity}).String(); got != "t1 ≤ ∞" {
		t.Errorf("String = %q", got)
	}
}
