package model

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
)

// TestSoundnessGeneratedRunsLegal asserts the generator only produces runs
// satisfying the legality conditions of Appendix C.
func TestSoundnessGeneratedRunsLegal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r, _ := generateRun(seed, DefaultConfig())
		if err := CheckLegal(r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSoundnessAxiomsValid is experiment E9: every rule function the
// sampler applies to premises true in a generated legal run returns a
// conclusion true in it (Appendix D's theorem, checked computationally
// for the code).
func TestSoundnessAxiomsValid(t *testing.T) {
	totalChecked := 0
	for seed := int64(0); seed < 30; seed++ {
		n, err := CheckSoundness(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		totalChecked += n
	}
	// Guard against silent vacuity: the sampler must exercise real
	// instances, not only trivially-true implications.
	if totalChecked < 500 {
		t.Errorf("only %d non-vacuous instances checked; sampler too weak", totalChecked)
	}
}

// TestSoundnessQuick drives the checker through testing/quick with random
// seeds and run sizes.
func TestSoundnessQuick(t *testing.T) {
	f := func(seed int64, principals, steps uint8) bool {
		cfg := Config{
			Principals: 3 + int(principals%4),
			Steps:      10 + int(steps%40),
			End:        1000,
		}
		_, err := CheckSoundness(seed, cfg)
		if err != nil {
			t.Logf("seed %d cfg %+v: %v", seed, cfg, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSoundnessPerAxiomCoverage checks the sampler applies every sampled
// rule function non-vacuously, keyed by the Rule* label the engine's
// proofs record, and applies no other.
func TestSoundnessPerAxiomCoverage(t *testing.T) {
	byRule := make(map[string]int)
	for seed := int64(0); seed < 40; seed++ {
		r, sc := generateRun(seed, DefaultConfig())
		for _, in := range instances(r, sc) {
			vac, err := checkInstance(r, in)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !vac {
				byRule[in.rule]++
			}
		}
	}
	sampled := []string{
		logic.RuleA7Interval, logic.RuleA8Monotone, logic.RuleA10Originate, logic.RuleA12ReadSigned,
		logic.RuleA15SaidPart, logic.RuleA17SaidSigned, logic.RuleA20SaysSaid, logic.RuleA21Fresh,
		logic.RuleA22Jurisdiction, logic.RuleA34GroupSays, logic.RuleA35GroupSaysKey, logic.RuleA38Threshold,
	}
	for _, rule := range sampled {
		if byRule[rule] == 0 {
			t.Errorf("rule %s never applied non-vacuously", rule)
		}
		delete(byRule, rule)
	}
	for rule, n := range byRule {
		t.Errorf("rule %s applied %d times, but is not on the sampled list", rule, n)
	}
}

// plantRun is a small legal run in which every planted row's premises
// hold: A utters a signed message at 5, a tuple at 7 and, with B, a
// co-signed one at 9, then signs one alone at 11; Auth speaks a true
// formula at 8. A speaks for Gp, A|Ka for Gb and {A|Ka, B|Kb}(2) for Gt.
func plantRun(t *testing.T) *Run {
	t.Helper()
	r := NewRun(100)
	r.Generate("A", "Ka", 0)
	r.Generate("B", "Kb", 0)
	sends := []struct {
		from string
		msg  logic.Message
		at   clock.Time
	}{
		{"A", logic.Sign(logic.Const{Value: "m"}, "Ka"), 5},
		{"A", logic.NewTuple(logic.Const{Value: "c1"}, logic.Const{Value: "c2"}), 7},
		{"Auth", logic.AsMessage(logic.TimeLE{A: 1, B: 2}), 8},
		{"A", logic.Sign(logic.Const{Value: "j"}, "Ka"), 9},
		{"B", logic.Sign(logic.Const{Value: "j"}, "Kb"), 9},
		{"A", logic.Sign(logic.Const{Value: "k"}, "Ka"), 11},
	}
	for _, s := range sends {
		if err := r.Send(s.from, "S", s.msg, s.at, s.at); err != nil {
			t.Fatal(err)
		}
	}
	r.Authorize("Gp", logic.P("A"))
	r.Authorize("Gb", logic.P("A").Bind("Ka"))
	r.Authorize("Gt", logic.CP(logic.P("A").Bind("Ka"), logic.P("B").Bind("Kb")).WithThreshold(2))
	if err := CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCheckInstanceDetectsViolation plants one wrong conclusion per
// sampled rule family, each on premises that hold, and requires the
// checker to report it — the checker must be able to fail, otherwise
// TestSoundnessAxiomsValid proves nothing. The A10 row plants a forged
// signature in the run instead.
func TestCheckInstanceDetectsViolation(t *testing.T) {
	forgedRun := NewRun(100)
	forgedRun.Generate("A", "Ka", 0)
	forged := logic.Sign(logic.Const{Value: "forged"}, "Ka")
	if err := forgedRun.Send("Eve", "B", forged, 5, 6); err != nil {
		t.Fatal(err)
	}
	r := plantRun(t)
	a, b, auth, s := logic.P("A"), logic.P("B"), logic.P("Auth"), logic.P("S")
	m, sig := logic.Const{Value: "m"}, logic.Sign(logic.Const{Value: "m"}, "Ka")
	tup := logic.NewTuple(logic.Const{Value: "c1"}, logic.Const{Value: "c2"})
	truth, falsehood := logic.TimeLE{A: 1, B: 2}, logic.TimeLE{A: 2, B: 1}
	cp := logic.CP(a.Bind("Ka"), b.Bind("Kb")).WithThreshold(2)
	at := logic.At
	cases := []struct {
		name string // the fault planted
		run  *Run
		in   instance
	}{
		{"A10: a forged signature attributed to the key's owner", forgedRun, instance{
			rule: logic.RuleA10Originate, at: 6,
			premises:   []logic.Formula{logic.Received{Who: b, T: at(6), X: forged}},
			conclusion: logic.Said{Who: a, T: at(6), X: logic.Const{Value: "forged"}},
		}},
		{"A7: instantiated outside its interval", r, instance{
			rule: logic.RuleA7Interval, at: 10,
			premises:   []logic.Formula{logic.Said{Who: a, T: logic.During(5, 10), X: sig}},
			conclusion: logic.Said{Who: a, T: at(4), X: sig},
		}},
		{"A8: received moved earlier", r, instance{
			rule: logic.RuleA8Monotone, at: 5,
			premises:   []logic.Formula{logic.Received{Who: s, T: at(5), X: sig}},
			conclusion: logic.Received{Who: s, T: at(4), X: sig},
		}},
		{"A12: read by the wrong principal", r, instance{
			rule: logic.RuleA12ReadSigned, at: 5,
			premises:   []logic.Formula{logic.Received{Who: s, T: at(5), X: sig}},
			conclusion: logic.Received{Who: b, T: at(5), X: m},
		}},
		{"A15: a part the tuple does not have", r, instance{
			rule: logic.RuleA15SaidPart, at: 7,
			premises:   []logic.Formula{logic.Said{Who: a, T: at(7), X: tup}},
			conclusion: logic.Said{Who: a, T: at(7), X: logic.Const{Value: "c3"}},
		}},
		{"A17: signed content pinned on another speaker", r, instance{
			rule: logic.RuleA17SaidSigned, at: 5,
			premises:   []logic.Formula{logic.Said{Who: a, T: at(5), X: sig}},
			conclusion: logic.Said{Who: b, T: at(5), X: m},
		}},
		{"A20: said before it was uttered", r, instance{
			rule: logic.RuleA20SaysSaid, at: 5,
			premises:   []logic.Formula{logic.Says{Who: a, T: at(5), X: sig}},
			conclusion: logic.Said{Who: a, T: at(4), X: sig},
		}},
		{"A21: freshness carried past the first utterance", r, instance{
			rule: logic.RuleA21Fresh, at: 5,
			premises:   []logic.Formula{logic.Fresh{T: at(4), Who: "S", X: m}},
			conclusion: logic.Fresh{T: at(5), Who: "S", X: m},
		}},
		{"A22: a formula other than the one spoken", r, instance{
			rule: logic.RuleA22Jurisdiction, at: 8,
			premises: []logic.Formula{
				logic.Controls{Who: auth, T: at(8), F: truth},
				logic.Says{Who: auth, T: at(8), X: logic.AsMessage(truth)},
			},
			conclusion: logic.AtFormula{F: falsehood, P: "Auth", T: at(8)},
		}},
		{"A34: a group the member does not speak for", r, instance{
			rule: logic.RuleA34GroupSays, at: 5,
			premises: []logic.Formula{
				logic.MemberOf{Who: a, T: at(5), G: logic.G("Gp")},
				logic.Says{Who: a, T: at(5), X: sig},
			},
			conclusion: logic.GroupSays{G: logic.G("Gnone"), T: at(5), X: sig},
		}},
		{"A35: the signature left on the content", r, instance{
			rule: logic.RuleA35GroupSaysKey, at: 5,
			premises: []logic.Formula{
				logic.MemberOf{Who: a.Bind("Ka"), T: at(5), G: logic.G("Gb")},
				logic.KeySpeaksFor{K: "Ka", T: at(5), Who: a},
				logic.Says{Who: a, T: at(5), X: sig},
			},
			conclusion: logic.GroupSays{G: logic.G("Gb"), T: at(5), X: sig},
		}},
		{"A38: one signer counted as a quorum", r, instance{
			rule: logic.RuleA38Threshold, at: 11,
			premises: []logic.Formula{
				logic.MemberOf{Who: cp, T: at(11), G: logic.G("Gt")},
				logic.Says{Who: a, T: at(11), X: logic.Sign(logic.Const{Value: "k"}, "Ka")},
			},
			conclusion: logic.GroupSays{G: logic.G("Gt"), T: at(11), X: logic.Const{Value: "k"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vac, err := checkInstance(tc.run, tc.in)
			if vac {
				t.Fatalf("premises do not hold: %s", tc.in)
			}
			if err == nil || !strings.Contains(err.Error(), "soundness violation") {
				t.Fatalf("checker missed the planted fault: %v", err)
			}
		})
	}
}

// TestCheckInstanceReportsRefusal: a rule that refuses premises the run
// makes true fails the check, and one that refuses false premises does
// not (the instance is vacuous).
func TestCheckInstanceReportsRefusal(t *testing.T) {
	r := plantRun(t)
	refusal := errors.New("refused")
	said := logic.Said{Who: logic.P("A"), T: logic.At(7), X: logic.NewTuple(logic.Const{Value: "c1"}, logic.Const{Value: "c2"})}
	in := instance{rule: logic.RuleA15SaidPart, at: 7, premises: []logic.Formula{said}, refusal: refusal}
	if _, err := checkInstance(r, in); !errors.Is(err, refusal) {
		t.Fatalf("refusal of true premises not reported: %v", err)
	}
	in.premises = []logic.Formula{logic.Said{Who: logic.P("B"), T: logic.At(7), X: said.X}}
	if vac, err := checkInstance(r, in); !vac || err != nil {
		t.Fatalf("refusal of false premises: vacuous %v, %v", vac, err)
	}
}

// TestInstanceStringAndVacuous exercises formatting and the vacuous path.
func TestInstanceStringAndVacuous(t *testing.T) {
	r := NewRun(10)
	in := instance{
		rule:       logic.RuleA20SaysSaid,
		premises:   []logic.Formula{logic.Says{Who: logic.P("A"), T: logic.At(1), X: logic.Const{Value: "m"}}},
		conclusion: logic.Said{Who: logic.P("A"), T: logic.At(1), X: logic.Const{Value: "m"}},
		at:         1,
	}
	vac, err := checkInstance(r, in)
	if err != nil || !vac {
		t.Errorf("empty-run instance should be vacuous: %v, %v", vac, err)
	}
	if !strings.HasPrefix(in.String(), logic.RuleA20SaysSaid+" @") {
		t.Errorf("instance string %q does not name its rule", in.String())
	}
}
