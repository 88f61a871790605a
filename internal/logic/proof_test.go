package logic

import (
	"strings"
	"testing"
)

// step returns the proof line with the given ID, read through Steps.
func step(p *Proof, id int) (Step, bool) {
	steps := p.Steps()
	if id < 1 || id > len(steps) {
		return Step{}, false
	}
	return steps[id-1], true
}

func TestProofAppendAndNumbering(t *testing.T) {
	p := NewProof("P")
	if !strings.HasPrefix(p.String(), "Derivation at P:") || p.Len() != 0 {
		t.Fatalf("fresh proof: %q, %d", p.String(), p.Len())
	}
	id1 := p.Append(RuleAssumption, nil, Prop{Name: "a"}, 1, "first")
	id2 := p.Append(RuleA10Originate, []int{id1}, Prop{Name: "b"}, 2, "")
	if id1 != 1 || id2 != 2 || p.Len() != 2 {
		t.Errorf("ids = %d, %d; len = %d", id1, id2, p.Len())
	}
	s2, ok := step(p, 2)
	if !ok || s2.Rule != RuleA10Originate || len(s2.Premises) != 1 || s2.Premises[0] != 1 {
		t.Errorf("step 2 = %+v", s2)
	}
	if _, ok := step(p, 0); ok {
		t.Error("step 0 should not exist")
	}
	if _, ok := step(p, 3); ok {
		t.Error("step 3 should not exist")
	}
}

func TestProofCheck(t *testing.T) {
	p := NewProof("P")
	p.Append("r", nil, Prop{Name: "a"}, 1, "")
	p.Append("r", []int{1}, Prop{Name: "b"}, 2, "")
	if err := p.Check(); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	// Forward references are inconsistent.
	bad := NewProof("P")
	bad.Append("r", []int{2}, Prop{Name: "a"}, 1, "")
	if err := bad.Check(); err == nil {
		t.Error("forward premise accepted")
	}
	// Nil conclusions are inconsistent.
	nilC := NewProof("P")
	nilC.Append("r", nil, nil, 1, "")
	if err := nilC.Check(); err == nil {
		t.Error("nil conclusion accepted")
	}
}

func TestProofStepsAreCopies(t *testing.T) {
	p := NewProof("P")
	p.Append("r", []int{}, Prop{Name: "a"}, 1, "")
	steps := p.Steps()
	steps[0].Rule = "mutated"
	if got, _ := step(p, 1); got.Rule == "mutated" {
		t.Error("Steps leaked internal state")
	}
	// Premise slices are copied on Append too.
	prem := []int{1}
	p.Append("r", prem, Prop{Name: "b"}, 2, "")
	prem[0] = 99
	if got, _ := step(p, 2); got.Premises[0] != 1 {
		t.Error("Append aliased premises")
	}
}

func TestProofRendering(t *testing.T) {
	p := NewProof("ServerP")
	p.Append(RuleAssumption, nil, Prop{Name: "x"}, 3, "a note")
	p.Append(RuleA38Threshold, []int{1}, Prop{Name: "y"}, 4, "")
	out := p.String()
	for _, frag := range []string{"ServerP", "  1. x", "assumption", "a note", "A38", "from [1]"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	st, _ := step(p, 1)
	if !strings.Contains(st.String(), "— a note") {
		t.Errorf("step render missing note: %s", st)
	}
}
