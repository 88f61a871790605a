package logic

import (
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

func TestFormulaCanonicalForms(t *testing.T) {
	cp := CP(P("D1"), P("D2"), P("D3")).WithThreshold(3)
	tests := []struct {
		f    Formula
		want string
	}{
		{Prop{Name: "x"}, "x"},
		{Not{F: Prop{Name: "x"}}, "¬x"},
		{And{L: Prop{Name: "a"}, R: Prop{Name: "b"}}, "(a ∧ b)"},
		{Implies{L: Prop{Name: "a"}, R: Prop{Name: "b"}}, "(a ⊃ b)"},
		{TimeLE{A: 1, B: 2}, "t1 ≤ t2"},
		{Believes{Who: P("P"), T: At(3), F: Prop{Name: "x"}}, "P believes_t3 x"},
		{Controls{Who: cp, T: At(3), F: Prop{Name: "x"}}, "{D1,D2,D3}(3,3) controls_t3 x"},
		{Says{Who: P("A"), T: At(1), X: Const{Value: "m"}}, "A says_t1 “m”"},
		{Said{Who: P("A"), T: Sometime(1, 2), X: Const{Value: "m"}}, "A said_⟨t1,t2⟩ “m”"},
		{Received{Who: P("B"), T: During(1, 2).On("B"), X: Const{Value: "m"}}, "B received_[t1,t2],B “m”"},
		{Has{Who: P("A"), T: At(9), K: "Kx"}, "A has_t9 Kx"},
		{KeySpeaksFor{K: "K", T: At(1), Who: P("Q")}, "K ⇒_t1 Q"},
		{MemberOf{Who: P("Q").Bind("K"), T: At(1), G: G("g")}, "Q|K ⇒_t1 Group(g)"},
		{GroupSays{G: G("g"), T: At(1), X: Const{Value: "m"}}, "Group(g) says_t1 “m”"},
		{Fresh{T: At(1), Who: "P", X: Const{Value: "n"}}, "fresh_t1,P “n”"},
		{AtFormula{F: Prop{Name: "x"}, P: "P", T: At(1)}, "(x at_P t1)"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestSchemaStringsMentionQuantifiers(t *testing.T) {
	schemas := []Formula{
		KeyJurisdiction{CA: P("CA1")},
		MembershipJurisdiction{Authority: P("AA"), AuthorityName: "AA"},
		SaysTimeJurisdiction{Authority: P("AA"), Since: 3, Server: "P"},
	}
	for _, s := range schemas {
		if !strings.Contains(s.String(), "∀") {
			t.Errorf("schema %T should render quantified: %q", s, s)
		}
	}
}

func TestSchemaInstantiation(t *testing.T) {
	// The key and membership schemas instantiate at the authority the
	// acceptance table's jurisdiction lookup returns.
	store := NewBeliefStore()
	store.Add(KeyJurisdiction{CA: P("CA1")}, 0, 1)
	store.Add(MembershipJurisdiction{Authority: P("AA"), AuthorityName: "AA"}, 0, 2)
	if who, err := keyJurisdiction(store, P("CA1"), nil); err != nil || !SubjectEqual(who, P("CA1")) {
		t.Errorf("key jurisdiction = %v, %v", who, err)
	}
	if _, err := keyJurisdiction(store, CP(P("CA1"), P("CA2")), nil); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("compound CA's key jurisdiction: err = %v", err)
	}
	if who, err := membershipJurisdiction(store, P("AA"), nil); err != nil || !SubjectEqual(who, P("AA")) {
		t.Errorf("membership jurisdiction = %v, %v", who, err)
	}
	if _, err := membershipJurisdiction(store, P("CA1"), nil); err == nil {
		t.Error("membership jurisdiction found for CA1")
	}

	sj := SaysTimeJurisdiction{Authority: P("AA"), Since: 10, Server: "P"}
	says := Says{Who: P("AA"), T: At(12), X: Const{Value: "m"}}
	c3, err := sj.Instantiate(20, says)
	if err != nil {
		t.Fatal(err)
	}
	if c3.T.Kind != AllOf || c3.T.Time() != 10 || c3.T.End() != 20 || c3.T.Observer != "P" {
		t.Errorf("says-time interval = %v", c3.T)
	}
	// Instantiation before the trust start fails.
	if _, err := sj.Instantiate(5, says); err == nil {
		t.Error("instantiation before Since accepted")
	}
}

func TestFormulaEqualNil(t *testing.T) {
	if !FormulaEqual(nil, nil) {
		t.Error("nil == nil")
	}
	if FormulaEqual(nil, Prop{Name: "x"}) || FormulaEqual(Prop{Name: "x"}, nil) {
		t.Error("nil vs formula")
	}
}

func TestTimeLEInfinity(t *testing.T) {
	f := TimeLE{A: 3, B: clock.Infinity}
	if !f.Holds() {
		t.Error("t ≤ ∞ should hold")
	}
}

// Engine error-path coverage.
func TestEngineErrorPaths(t *testing.T) {
	clk := clock.New(100)
	eng := NewEngine("P", clk)

	// IdentifyOriginator without the key belief.
	key := KeySpeaksFor{K: "K", T: At(100), Who: P("Q")}
	rcv := Received{Who: P("P"), T: At(100), X: Sign(Const{Value: "m"}, "K")}
	if _, _, err := eng.IdentifyOriginator(key, rcv, 1); err == nil {
		t.Error("originator identification without key belief succeeded")
	}

	// AcceptCertificateAccuracy on a non-signed message.
	bad := Said{Who: P("CA"), T: At(100), X: Const{Value: "unsigned"}}
	if _, _, err := eng.AcceptCertificateAccuracy(bad, 1); err == nil {
		t.Error("accuracy on unsigned message succeeded")
	}

	// AcceptCertificateAccuracy without says-time jurisdiction.
	cert := Sign(AsMessage(Says{Who: P("CA"), T: At(90), X: AsMessage(Prop{Name: "x"})}), "Kca")
	said := Said{Who: P("CA"), T: At(100), X: cert}
	if _, _, err := eng.AcceptCertificateAccuracy(said, 1); err == nil {
		t.Error("accuracy without jurisdiction succeeded")
	}

	// Acceptance of a body no certificate carries.
	says := Says{Who: P("CA"), T: At(90), X: AsMessage(Prop{Name: "x"})}
	if _, _, err := eng.accept(says, 1); err == nil {
		t.Error("acceptance of a non-certificate body succeeded")
	}

	// Membership acceptance without jurisdiction.
	memSays := Says{Who: P("AA"), T: At(90), X: AsMessage(MemberOf{Who: P("U"), T: During(1, 9), G: G("g")})}
	if _, _, err := eng.accept(memSays, 1); err == nil {
		t.Error("membership acceptance without jurisdiction succeeded")
	}

	// VerifyCertificate with an unsupported body.
	eng.Assume(KeySpeaksFor{K: "Kca", T: During(0, clock.Infinity).On("P"), Who: P("CA")}, "")
	eng.Assume(SaysTimeJurisdiction{Authority: P("CA"), Since: 0, Server: "P"}, "")
	odd := Sign(AsMessage(Says{Who: P("CA"), T: At(90), X: AsMessage(Prop{Name: "x"})}), "Kca")
	caKey, _ := eng.Store().KeyFor("CA", 100)
	if _, _, err := eng.VerifyCertificate(odd, caKey); err == nil {
		t.Error("unsupported certificate body accepted")
	}

	// Revocation of a negation that is not a membership.
	negSays := Says{Who: P("CA"), T: At(90), X: AsMessage(Not{F: Prop{Name: "x"}})}
	if _, _, err := eng.accept(negSays, 1); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("revocation of a non-membership negation: err = %v", err)
	}
}

// Engine A36/A37 paths: compound principals speaking directly.
func TestEngineCompoundGroupSays(t *testing.T) {
	clk := clock.New(100)
	eng := NewEngine("P", clk)
	cp := CP(P("A"), P("B"))

	// A36: plain compound membership.
	mem := MemberOf{Who: cp, T: During(0, 1000), G: G("g")}
	memStep := eng.Assume(mem, "plain compound membership")
	say := Says{Who: cp, T: At(100), X: Const{Value: "op"}}
	gs, _, err := eng.ConcludeGroupSays(mem, memStep, []Says{say}, []int{memStep})
	if err != nil {
		t.Fatalf("A36 path: %v", err)
	}
	if gs.G != G("g") {
		t.Errorf("A36 group = %s", gs.G)
	}

	// A37: key-bound compound membership needs the CP key belief.
	cpk := cp.WithKey("Kcp")
	memK := MemberOf{Who: cpk, T: During(0, 1000), G: G("g2")}
	memKStep := eng.Assume(memK, "key-bound compound membership")
	sayK := Says{Who: cp, T: At(100), X: Sign(Const{Value: "op"}, "Kcp")}
	if _, _, err := eng.ConcludeGroupSays(memK, memKStep, []Says{sayK}, []int{memKStep}); err == nil {
		t.Fatal("A37 without key belief succeeded")
	}
	eng.Assume(KeySpeaksFor{K: "Kcp", T: During(0, 1000), Who: cp}, "Kcp ⇒ CP")
	gs2, _, err := eng.ConcludeGroupSays(memK, memKStep, []Says{sayK}, []int{memKStep})
	if err != nil {
		t.Fatalf("A37 path: %v", err)
	}
	if !MessageEqual(gs2.X, Const{Value: "op"}) {
		t.Errorf("A37 content = %s", gs2.X)
	}

	// No utterance at all.
	if _, _, err := eng.ConcludeGroupSays(mem, memStep, nil, nil); err == nil {
		t.Error("group says without utterances succeeded")
	}
}
