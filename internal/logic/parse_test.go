package logic

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"jointadmin/internal/clock"
)

// roundTrip asserts Parse(f.String()) reproduces f exactly.
func roundTrip(t *testing.T, f Formula) {
	t.Helper()
	got, err := ParseFormula(f.String())
	if err != nil {
		t.Fatalf("parse %q: %v", f.String(), err)
	}
	if !FormulaEqual(got, f) {
		t.Fatalf("round trip changed formula:\n in:  %s\n out: %s", f, got)
	}
}

func TestParseRoundTripBasics(t *testing.T) {
	cp := CP(P("U1").Bind("K1"), P("U2").Bind("K2"), P("U3").Bind("K3")).WithThreshold(2)
	formulas := []Formula{
		TimeLE{A: 1, B: 2},
		TimeLE{A: 5, B: clock.Infinity},
		Not{F: TimeLE{A: 3, B: 1}},
		And{L: TimeLE{A: 1, B: 2}, R: TimeLE{A: 2, B: 3}},
		Implies{L: TimeLE{A: 1, B: 2}, R: TimeLE{A: 0, B: 9}},
		Says{Who: P("A"), T: At(5), X: Const{Value: "write O"}},
		Said{Who: P("A"), T: During(1, 9).On("P"), X: Const{Value: "m"}},
		Received{Who: P("P"), T: Sometime(2, 4), X: Sign(Const{Value: "m"}, "Ka")},
		Believes{Who: P("P"), T: At(7), F: TimeLE{A: 1, B: 2}},
		Controls{Who: P("AA"), T: During(0, 100).On("P"), F: TimeLE{A: 1, B: 2}},
		Has{Who: P("P"), T: At(3), K: "Kx"},
		KeySpeaksFor{K: "Kuser", T: During(50, 5000).On("CA1"), Who: P("User_D1")},
		KeySpeaksFor{K: "KAA", T: At(9), Who: CP(P("D1"), P("D2"), P("D3")).WithThreshold(3)},
		MemberOf{Who: P("Q"), T: At(4), G: G("G_read")},
		MemberOf{Who: P("Q").Bind("Kq"), T: During(1, 2), G: G("G_read")},
		MemberOf{Who: cp, T: During(50, 5000).On("AA"), G: G("G_write")},
		MemberOf{Who: CP(P("A"), P("B")).WithKey("Kcp"), T: At(1), G: G("g")},
		GroupSays{G: G("G_write"), T: At(6), X: NewTuple(Const{Value: "write"}, Const{Value: "O"})},
		Fresh{T: At(3), Who: "P", X: Const{Value: "n1"}},
		AtFormula{F: Says{Who: P("AA"), T: At(2), X: Const{Value: "m"}}, P: "P", T: Sometime(0, 4)},
		Not{F: MemberOf{Who: cp, T: At(7).On("RA"), G: G("G_write")}},
		Prop{Name: "x"},
		Prop{Name: "residual(G_write)"},
		And{L: Prop{Name: "a"}, R: Not{F: Prop{Name: "b"}}},
		AtFormula{F: Prop{Name: "x"}, P: "P", T: At(1)},
		Delegates{To: P("B").Bind("Kb"), G: G("G"), Depth: 2, Perms: "read", Path: "A", T: During(1, clock.Infinity)},
		Delegates{To: P("C"), G: G("G_read"), Depth: 0, Perms: "*", Path: "root>A>B", T: During(3, 9).On("AA")},
		Delegates{To: P("A"), G: G("G"), Depth: 1, Perms: "read,write", T: At(2)},
		GroupGraphEdge{Sub: G("A"), T: During(1, 9), Depth: 3, Sup: G("B")},
		Not{F: GroupGraphEdge{Sub: G("A"), T: At(4).On("AA"), Depth: 0, Sup: G("B")}},
	}
	for _, f := range formulas {
		roundTrip(t, f)
	}
}

func TestParseRoundTripNested(t *testing.T) {
	// The idealized threshold attribute certificate of message 1-3.
	cp := CP(P("U1").Bind("K1"), P("U2").Bind("K2"), P("U3").Bind("K3")).WithThreshold(2)
	body := MemberOf{Who: cp, T: During(50, 5000).On("AA"), G: G("G_write")}
	cert := Says{Who: P("AA"), T: At(95), X: AsMessage(body)}
	roundTrip(t, cert)

	// The signed form as a received message.
	rcv := Received{Who: P("P"), T: At(100), X: Sign(AsMessage(cert), "KAA")}
	roundTrip(t, rcv)

	// Belief about a derivation conclusion.
	bel := Believes{Who: P("P"), T: At(101), F: body}
	roundTrip(t, bel)
}

func TestParseMessageForms(t *testing.T) {
	msgs := []Message{
		Const{Value: "hello world"},
		NewTuple(Const{Value: "write"}, Const{Value: "O"}),
		NewTuple(Const{Value: "a"}, NewTuple(Const{Value: "b"}, Const{Value: "c"})),
		Sign(Const{Value: "x"}, "K1"),
		Encrypt(Const{Value: "x"}, "K2"),
		Sign(Encrypt(NewTuple(Const{Value: "x"}, Const{Value: "y"}), "Ka"), "Kb"),
		AsMessage(TimeLE{A: 1, B: 2}),
	}
	for _, m := range msgs {
		f := Said{Who: P("A"), T: At(1), X: m}
		parsed, err := ParseFormula(f.String())
		if err != nil {
			t.Fatalf("parse %q: %v", f.String(), err)
		}
		if got := parsed.(Said).X; !MessageEqual(got, m) {
			t.Fatalf("round trip changed message: %s vs %s", m, got)
		}
	}
}

func TestParseSubjectForms(t *testing.T) {
	subs := []Subject{
		P("Alice"),
		P("Alice").Bind("Ka"),
		CP(P("A"), P("B"), P("C")),
		CP(P("A").Bind("K1"), P("B").Bind("K2")).WithThreshold(1),
		CP(P("A"), P("B")).WithKey("Kcp"),
	}
	for _, s := range subs {
		f := MemberOf{Who: s, T: At(1), G: G("g")}
		parsed, err := ParseFormula(f.String())
		if err != nil {
			t.Fatalf("parse %q: %v", f.String(), err)
		}
		if got := parsed.(MemberOf).Who; !SubjectEqual(got, s) {
			t.Fatalf("round trip changed subject: %s vs %s", s, got)
		}
	}
}

func TestParseTimeSpecForms(t *testing.T) {
	specs := []TimeSpec{
		At(5),
		At(5).On("P"),
		During(1, 9),
		During(1, clock.Infinity).On("Srv"),
		Sometime(2, 4),
	}
	for _, ts := range specs {
		f := Said{Who: P("A"), T: ts, X: Const{Value: "m"}}
		parsed, err := ParseFormula(f.String())
		if err != nil {
			t.Fatalf("parse %q: %v", f.String(), err)
		}
		if got := parsed.(Said).T; got != ts {
			t.Fatalf("round trip changed spec: %v vs %v", ts, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"((",
		"t1 ≤",
		"A says_",
		"A believes_t1",          // missing body
		"fresh_t1 “x”",           // missing clock subscript
		"⟦“x”⟧",                  // missing key
		"{A,B} ⇒_t1",             // missing target
		"A|K ⇒_t1 B",             // bound left side of key-speaks-for
		"A says_t1 “x” trailing", // trailing garbage
		"A|K",                    // a bound name is no proposition
		"residual(G",             // unclosed proposition argument
		"residual (G)",           // the argument must follow the name
	}
	for _, s := range bad {
		if _, err := ParseFormula(s); !errors.Is(err, ErrParse) {
			t.Errorf("ParseFormula(%q) = %v, want parse error", s, err)
		}
	}
}

// randomFormula builds a random formula of bounded depth for the
// round-trip property.
func randomFormula(rng *rand.Rand, depth int) Formula {
	names := []string{"A", "B", "CA1", "User_D1", "Srv"}
	keys := []KeyID{"K1", "K2", "KAA"}
	groups := []string{"G_read", "G_write"}
	subj := func() Subject {
		switch rng.Intn(3) {
		case 0:
			return P(names[rng.Intn(len(names))])
		case 1:
			return P(names[rng.Intn(len(names))]).Bind(keys[rng.Intn(len(keys))])
		default:
			cp := CP(P("A").Bind("K1"), P("B").Bind("K2"), P("C").Bind("K3"))
			if rng.Intn(2) == 0 {
				cp = cp.WithThreshold(1 + rng.Intn(3))
			}
			return cp
		}
	}
	ts := func() TimeSpec {
		b := clock.Time(rng.Intn(50))
		e := b + clock.Time(rng.Intn(50))
		var out TimeSpec
		switch rng.Intn(3) {
		case 0:
			out = At(b)
		case 1:
			out = During(b, e)
		default:
			out = Sometime(b, e)
		}
		if rng.Intn(3) == 0 {
			out = out.On(names[rng.Intn(len(names))])
		}
		return out
	}
	var msg func(d int) Message
	msg = func(d int) Message {
		if d <= 0 || rng.Intn(2) == 0 {
			return Const{Value: fmt.Sprintf("m%d", rng.Intn(20))}
		}
		switch rng.Intn(3) {
		case 0:
			return NewTuple(msg(d-1), msg(d-1))
		case 1:
			return Sign(msg(d-1), keys[rng.Intn(len(keys))])
		default:
			return Encrypt(msg(d-1), keys[rng.Intn(len(keys))])
		}
	}
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return TimeLE{A: clock.Time(rng.Intn(9)), B: clock.Time(rng.Intn(9))}
		case 1:
			return Says{Who: subj(), T: ts(), X: msg(1)}
		default:
			return MemberOf{Who: subj(), T: ts(), G: G(groups[rng.Intn(len(groups))])}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Not{F: randomFormula(rng, depth-1)}
	case 1:
		return And{L: randomFormula(rng, depth-1), R: randomFormula(rng, depth-1)}
	case 2:
		return Implies{L: randomFormula(rng, depth-1), R: randomFormula(rng, depth-1)}
	case 3:
		return Believes{Who: subj(), T: ts(), F: randomFormula(rng, depth-1)}
	case 4:
		return Controls{Who: subj(), T: ts(), F: randomFormula(rng, depth-1)}
	case 5:
		return Received{Who: subj(), T: ts(), X: msg(depth)}
	case 6:
		return KeySpeaksFor{K: keys[rng.Intn(len(keys))], T: ts(), Who: subj()}
	default:
		return AtFormula{F: Says{Who: subj(), T: ts(), X: msg(1)}, P: names[rng.Intn(len(names))], T: ts()}
	}
}

// TestParseRoundTripProperty: for random formulas, Parse(String(f)) == f.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		formula := randomFormula(rng, 3)
		got, err := ParseFormula(formula.String())
		if err != nil {
			t.Logf("parse %q: %v", formula.String(), err)
			return false
		}
		return FormulaEqual(got, formula)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseGroupSpeaksFor(t *testing.T) {
	f := GroupSpeaksFor{Sub: G("G_admins"), T: During(1, 9).On("AA"), Sup: G("G_write")}
	roundTrip(t, f)
	if _, err := ParseFormula("Group(A) ⇒_t1"); !errors.Is(err, ErrParse) {
		t.Errorf("truncated group link: %v", err)
	}
	if _, err := ParseFormula("Group(A) nonsense"); !errors.Is(err, ErrParse) {
		t.Errorf("bad group modality: %v", err)
	}
}

// FuzzParseFormula: the parser must never panic, and anything it accepts
// must re-render and re-parse to the same structure (full idempotence).
func FuzzParseFormula(f *testing.F) {
	seeds := []string{
		"t1 ≤ t2",
		"A says_t5 “write O”",
		"Kuser ⇒_[t50,t5000],CA1 User_D1",
		"{U1|K1,U2|K2,U3|K3}(2,3) ⇒_[t50,t5000],AA Group(G_write)",
		"¬(Group(A) ⇒_t1 Group(B))",
		"P received_t7 ⟦“m”⟧Ka⁻¹",
		"(x at_P ⟨t1,t9⟩)",
		"fresh_t3,Srv (“req”, “n42”)",
		"((", "Group(", "⇒_t1", "A says_", "“unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := ParseFormula(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		again, err := ParseFormula(formula.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", formula.String(), err)
		}
		if !FormulaEqual(again, formula) {
			t.Fatalf("re-parse changed structure: %s vs %s", formula, again)
		}
	})
}
