package model

import (
	"strings"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
)

func simpleRun(t *testing.T) *Run {
	t.Helper()
	r := NewRun(100)
	r.Generate("A", "Ka", 0)
	r.Generate("B", "Kb", 0)
	if err := r.Send("A", "B", logic.Sign(logic.Const{Value: "hello"}, "Ka"), 5, 7); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunLegal(t *testing.T) {
	r := simpleRun(t)
	if err := CheckLegal(r); err != nil {
		t.Fatalf("legal run rejected: %v", err)
	}
}

func TestLegalityRejectsUnmatchedReceive(t *testing.T) {
	r := NewRun(100)
	r.Trace("B").Append(Event{Kind: EventReceive, Msg: logic.Const{Value: "ghost"}, At: 5})
	err := CheckLegal(r)
	if err == nil || !strings.Contains(err.Error(), "legality (d)") {
		t.Fatalf("unmatched receive accepted: %v", err)
	}
}

func TestLegalityRejectsUnoriginatedKey(t *testing.T) {
	r := NewRun(100)
	r.Trace("A").GrantKey("Kmystery", 5)
	err := CheckLegal(r)
	if err == nil || !strings.Contains(err.Error(), "legality (c)") {
		t.Fatalf("unoriginated key accepted: %v", err)
	}
}

func TestLegalityAcceptsTransportedKey(t *testing.T) {
	// A generates Kx and ships it to B encrypted under B's key; B may then
	// hold Kx (legality (c) clause (b)).
	r := NewRun(100)
	r.Generate("A", "Kx", 0)
	r.Generate("B", "Kb", 0)
	envelope := logic.Encrypt(KeyTransport("Kx"), "Kb")
	if err := r.Send("A", "B", envelope, 3, 4); err != nil {
		t.Fatal(err)
	}
	r.Trace("B").GrantKey("Kx", 5)
	if err := CheckLegal(r); err != nil {
		t.Fatalf("transported key rejected: %v", err)
	}
}

func TestLegalityRejectsUnreadableTransportedKey(t *testing.T) {
	// The key travels encrypted under a key B does NOT hold: B must not be
	// able to acquire it.
	r := NewRun(100)
	r.Generate("A", "Kx", 0)
	envelope := logic.Encrypt(KeyTransport("Kx"), "Kother")
	if err := r.Send("A", "B", envelope, 3, 4); err != nil {
		t.Fatal(err)
	}
	r.Trace("B").GrantKey("Kx", 5)
	if err := CheckLegal(r); err == nil {
		t.Fatal("unreadable transported key accepted")
	}
}

func TestLegalityCompoundSharedKey(t *testing.T) {
	r := NewRun(100)
	r.Generate("D1", "KAA", 1)
	cp := r.AddCompound("{D1,D2}", "D1", "D2")
	cp.GrantKey("KAA", 1)
	if err := CheckLegal(r); err != nil {
		t.Fatalf("compound shared key rejected: %v", err)
	}
}

func TestSendRejectsTimeTravel(t *testing.T) {
	r := NewRun(100)
	if err := r.Send("A", "B", logic.Const{Value: "m"}, 5, 3); err == nil {
		t.Fatal("receive before send accepted")
	}
}

func TestEvalReceivedAndSays(t *testing.T) {
	r := simpleRun(t)
	rcv := logic.Received{Who: logic.P("B"), T: logic.At(7), X: logic.Const{Value: "hello"}}
	got, err := Eval(r, 10, rcv)
	if err != nil || !got {
		t.Errorf("received hello (signed content) = %v, %v", got, err)
	}
	// Before the receive time it must be false.
	early := logic.Received{Who: logic.P("B"), T: logic.At(6), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 10, early); got {
		t.Error("received before delivery")
	}
	says := logic.Says{Who: logic.P("A"), T: logic.At(5), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 10, says); !got {
		t.Error("A says hello at send time should hold")
	}
	saysWrong := logic.Says{Who: logic.P("A"), T: logic.At(6), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 10, saysWrong); got {
		t.Error("says at non-send time should fail")
	}
	said := logic.Said{Who: logic.P("A"), T: logic.At(9), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 10, said); !got {
		t.Error("said at later time should hold (A8)")
	}
}

func TestEvalFutureFormulasFalse(t *testing.T) {
	// "only formulas about the past can be true"
	r := simpleRun(t)
	f := logic.Says{Who: logic.P("A"), T: logic.At(50), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 10, f); got {
		t.Error("future formula evaluated true")
	}
}

func TestEvalKeySpeaksFor(t *testing.T) {
	r := simpleRun(t)
	good := logic.KeySpeaksFor{K: "Ka", T: logic.At(10), Who: logic.P("A")}
	if got, err := Eval(r, 20, good); err != nil || !got {
		t.Errorf("Ka ⇒ A = %v, %v", got, err)
	}
	// Ka does NOT speak for B: B never said "hello".
	bad := logic.KeySpeaksFor{K: "Ka", T: logic.At(10), Who: logic.P("B")}
	if got, _ := Eval(r, 20, bad); got {
		t.Error("Ka ⇒ B should be false")
	}
}

func TestEvalKeySpeaksForDetectsForgery(t *testing.T) {
	// Eve sends ⟦forged⟧Ka without A ever saying it: Ka no longer
	// properly identifies A's signatures.
	r := simpleRun(t)
	if err := r.Send("Eve", "B", logic.Sign(logic.Const{Value: "forged"}, "Ka"), 8, 9); err != nil {
		t.Fatal(err)
	}
	f := logic.KeySpeaksFor{K: "Ka", T: logic.At(9), Who: logic.P("A")}
	if got, _ := Eval(r, 20, f); got {
		t.Error("key goodness should fail in a run with forgeries")
	}
}

func TestEvalReplayPreservesKeyGoodness(t *testing.T) {
	// B forwards A's signed message to C: replay does not break key
	// goodness because A did say the content.
	r := simpleRun(t)
	msg := logic.Sign(logic.Const{Value: "hello"}, "Ka")
	if err := r.Send("B", "C", msg, 9, 10); err != nil {
		t.Fatal(err)
	}
	f := logic.KeySpeaksFor{K: "Ka", T: logic.At(10), Who: logic.P("A")}
	if got, err := Eval(r, 20, f); err != nil || !got {
		t.Errorf("replay broke key goodness: %v, %v", got, err)
	}
}

func TestEvalFresh(t *testing.T) {
	r := simpleRun(t)
	fresh := logic.Fresh{T: logic.At(4), Who: "B", X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 20, fresh); !got {
		t.Error("message should be fresh before first say")
	}
	stale := logic.Fresh{T: logic.At(6), Who: "B", X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 20, stale); got {
		t.Error("message should be stale after being said")
	}
}

func TestEvalGroupMembershipAndGroupSays(t *testing.T) {
	r := NewRun(100)
	r.Generate("M", "Km", 0)
	g := logic.G("Gx")
	member := logic.P("M").Bind("Km")
	r.Authorize(g.Name, member)
	content := logic.Const{Value: "op"}
	if err := r.Send("M", "Srv", logic.Sign(content, "Km"), 5, 5); err != nil {
		t.Fatal(err)
	}

	gs := logic.GroupSays{G: g, T: logic.At(5), X: content}
	if got, err := Eval(r, 10, gs); err != nil || !got {
		t.Errorf("G says op = %v, %v", got, err)
	}
	mem := logic.MemberOf{Who: member, T: logic.At(5), G: g}
	if got, err := Eval(r, 10, mem); err != nil || !got {
		t.Errorf("M|Km ⇒ G = %v, %v", got, err)
	}
	// An unauthorized principal is not a member.
	outsider := logic.MemberOf{Who: logic.P("Z"), T: logic.At(5), G: g}
	if got, _ := Eval(r, 10, outsider); got {
		t.Error("outsider evaluated as member")
	}
	// Utterances signed with the wrong key do not reach the group.
	r.Generate("M", "Kother", 0)
	if err := r.Send("M", "Srv", logic.Sign(logic.Const{Value: "op2"}, "Kother"), 7, 7); err != nil {
		t.Fatal(err)
	}
	gs2 := logic.GroupSays{G: g, T: logic.At(7), X: logic.Const{Value: "op2"}}
	if got, _ := Eval(r, 10, gs2); got {
		t.Error("wrong-key utterance reached the group")
	}
}

func TestEvalThresholdGroupSays(t *testing.T) {
	r := NewRun(100)
	ms := []logic.Principal{logic.P("U1").Bind("K1"), logic.P("U2").Bind("K2"), logic.P("U3").Bind("K3")}
	for i, m := range ms {
		r.Generate(m.Name, m.Key, clock.Time(i)*0)
	}
	cp := logic.CP(ms...).WithThreshold(2)
	g := logic.G("Gw")
	r.Authorize(g.Name, cp)
	content := logic.Const{Value: "write O"}
	// Only one signer at t=5: not enough.
	if err := r.Send("U1", "Srv", logic.Sign(content, "K1"), 5, 5); err != nil {
		t.Fatal(err)
	}
	gs := logic.GroupSays{G: g, T: logic.At(5), X: content}
	if got, _ := Eval(r, 10, gs); got {
		t.Error("single signer met 2-of-3 threshold")
	}
	// Two signers at t=6: enough.
	if err := r.Send("U1", "Srv", logic.Sign(content, "K1"), 6, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.Send("U2", "Srv", logic.Sign(content, "K2"), 6, 6); err != nil {
		t.Fatal(err)
	}
	gs6 := logic.GroupSays{G: g, T: logic.At(6), X: content}
	if got, err := Eval(r, 10, gs6); err != nil || !got {
		t.Errorf("2-of-3 quorum = %v, %v", got, err)
	}
	mem := logic.MemberOf{Who: cp, T: logic.At(6), G: g}
	if got, err := Eval(r, 10, mem); err != nil || !got {
		t.Errorf("CP(2,3) ⇒ G = %v, %v", got, err)
	}
}

func TestEvalControls(t *testing.T) {
	r := NewRun(100)
	r.Generate("AA", "Kaa", 0)
	body := logic.TimeLE{A: 1, B: 2} // a true formula
	if err := r.Send("AA", "Srv", logic.AsMessage(body), 5, 5); err != nil {
		t.Fatal(err)
	}
	c := logic.Controls{Who: logic.P("AA"), T: logic.At(5), F: body}
	if got, err := Eval(r, 10, c); err != nil || !got {
		t.Errorf("controls over true spoken formula = %v, %v", got, err)
	}
	// Speaking a false formula refutes jurisdiction.
	lie := logic.TimeLE{A: 9, B: 2}
	if err := r.Send("AA", "Srv", logic.AsMessage(lie), 6, 6); err != nil {
		t.Fatal(err)
	}
	c2 := logic.Controls{Who: logic.P("AA"), T: logic.At(6), F: lie}
	if got, _ := Eval(r, 10, c2); got {
		t.Error("controls held despite a false statement")
	}
	// Not speaking at all makes controls vacuously true.
	c3 := logic.Controls{Who: logic.P("AA"), T: logic.At(7), F: lie}
	if got, err := Eval(r, 10, c3); err != nil || !got {
		t.Errorf("vacuous controls = %v, %v", got, err)
	}
}

func TestEvalIntervalQuantifiers(t *testing.T) {
	r := simpleRun(t)
	// Said holds from t=5 onwards: [6,9] all-of holds, [2,9] does not,
	// ⟨2,9⟩ some-of holds.
	all := logic.Said{Who: logic.P("A"), T: logic.During(6, 9), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 20, all); !got {
		t.Error("[6,9] said should hold")
	}
	allBad := logic.Said{Who: logic.P("A"), T: logic.During(2, 9), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 20, allBad); got {
		t.Error("[2,9] said should fail (not yet said at 2)")
	}
	some := logic.Said{Who: logic.P("A"), T: logic.Sometime(2, 9), X: logic.Const{Value: "hello"}}
	if got, _ := Eval(r, 20, some); !got {
		t.Error("⟨2,9⟩ said should hold")
	}
}

func TestEvalConnectives(t *testing.T) {
	r := simpleRun(t)
	tru := logic.TimeLE{A: 1, B: 2}
	fls := logic.TimeLE{A: 2, B: 1}
	cases := []struct {
		f    logic.Formula
		want bool
	}{
		{logic.Not{F: fls}, true},
		{logic.Not{F: tru}, false},
		{logic.And{L: tru, R: tru}, true},
		{logic.And{L: tru, R: fls}, false},
		{logic.Implies{L: fls, R: fls}, true},
		{logic.Implies{L: tru, R: fls}, false},
		{logic.Implies{L: tru, R: tru}, true},
	}
	for _, c := range cases {
		got, err := Eval(r, 10, c.f)
		if err != nil || got != c.want {
			t.Errorf("Eval(%s) = %v, %v; want %v", c.f, got, err, c.want)
		}
	}
}

func TestEvalRejectsUninterpreted(t *testing.T) {
	r := simpleRun(t)
	if _, err := Eval(r, 10, logic.Prop{Name: "p"}); err == nil {
		t.Error("uninterpreted proposition should error")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EventSend, Msg: logic.Const{Value: "m"}, To: "B", At: 3}
	if !strings.Contains(e.String(), "send") {
		t.Errorf("String = %q", e.String())
	}
	if EventReceive.String() != "receive" || EventGenerate.String() != "generate" {
		t.Error("kind names wrong")
	}
}

func TestTraceAppendKeepsSorted(t *testing.T) {
	tr := NewTrace("A")
	tr.Append(Event{Kind: EventSend, Msg: logic.Const{Value: "b"}, At: 9})
	tr.Append(Event{Kind: EventSend, Msg: logic.Const{Value: "a"}, At: 3})
	if tr.Events[0].At != 3 || tr.Events[1].At != 9 {
		t.Errorf("events not sorted: %v", tr.Events)
	}
}

func TestEvalHasAndBelieves(t *testing.T) {
	r := NewRun(100)
	r.Generate("A", "Ka", 5)
	has := logic.Has{Who: logic.P("A"), T: logic.At(6), K: "Ka"}
	if got, err := Eval(r, 10, has); err != nil || !got {
		t.Errorf("has after generate = %v, %v", got, err)
	}
	early := logic.Has{Who: logic.P("A"), T: logic.At(4), K: "Ka"}
	if got, _ := Eval(r, 10, early); got {
		t.Error("has before generate")
	}
	ghost := logic.Has{Who: logic.P("Z"), T: logic.At(6), K: "Ka"}
	if got, _ := Eval(r, 10, ghost); got {
		t.Error("unknown principal has key")
	}

	// Believes collapses to localized truth in the single-run model.
	if err := r.Send("A", "B", logic.Const{Value: "m"}, 7, 7); err != nil {
		t.Fatal(err)
	}
	bel := logic.Believes{Who: logic.P("B"), T: logic.At(8),
		F: logic.Said{Who: logic.P("A"), T: logic.At(7), X: logic.Const{Value: "m"}}}
	if got, err := Eval(r, 10, bel); err != nil || !got {
		t.Errorf("believes = %v, %v", got, err)
	}

	// AtFormula evaluates the inner formula at the named time.
	at := logic.AtFormula{F: logic.Said{Who: logic.P("A"), T: logic.At(7), X: logic.Const{Value: "m"}}, P: "B", T: logic.At(9)}
	if got, err := Eval(r, 10, at); err != nil || !got {
		t.Errorf("at-formula = %v, %v", got, err)
	}
}

func TestEvalGroupSpeaksForUnsupported(t *testing.T) {
	// The model's fragment does not interpret group links; Eval must
	// error, not silently return false.
	r := NewRun(10)
	f := logic.GroupSpeaksFor{Sub: logic.G("A"), T: logic.At(1), Sup: logic.G("B")}
	if _, err := Eval(r, 5, f); err == nil {
		t.Error("unsupported formula evaluated without error")
	}
}
