package logic

import (
	"testing"
	"testing/quick"
)

func TestPrincipalBinding(t *testing.T) {
	p := P("User_D1")
	if p.IsBound() {
		t.Error("fresh principal should be unbound")
	}
	b := p.Bind("Ku1")
	if !b.IsBound() || b.Key != "Ku1" {
		t.Errorf("Bind failed: %+v", b)
	}
	if b.Unbound() != p {
		t.Error("Unbound should drop the key")
	}
	if got := b.String(); got != "User_D1|Ku1" {
		t.Errorf("String = %q", got)
	}
}

func TestCompoundPrincipalCanonicalOrder(t *testing.T) {
	a := CP(P("D2"), P("D1"), P("D3"))
	b := CP(P("D3"), P("D1"), P("D2"))
	if a.String() != b.String() {
		t.Errorf("member order should not matter: %s vs %s", a, b)
	}
	if !a.SameMembers(b) {
		t.Error("SameMembers should hold")
	}
	if a.String() != "{D1,D2,D3}" {
		t.Errorf("canonical form = %q", a)
	}
}

func TestCompoundPrincipalThreshold(t *testing.T) {
	cp := CP(P("U1").Bind("K1"), P("U2").Bind("K2"), P("U3").Bind("K3")).WithThreshold(2)
	if !cp.IsThreshold() || cp.Threshold() != 2 || len(cp.Members()) != 3 {
		t.Fatalf("threshold construct wrong: %s", cp)
	}
	if got := cp.String(); got != "{U1|K1,U2|K2,U3|K3}(2,3)" {
		t.Errorf("String = %q", got)
	}
	k, ok := cp.MemberKey("U2")
	if !ok || k != "K2" {
		t.Errorf("MemberKey(U2) = %q, %v", k, ok)
	}
	if _, ok := cp.MemberKey("U9"); ok {
		t.Error("MemberKey for non-member should fail")
	}
	if !cp.Contains("U1") || cp.Contains("U9") {
		t.Error("Contains misbehaves")
	}
}

func TestCompoundPrincipalKeyBinding(t *testing.T) {
	cp := CP(P("A"), P("B")).WithKey("Kcp")
	if cp.Key() != "Kcp" {
		t.Errorf("Key = %q", cp.Key())
	}
	if got := cp.String(); got != "{A,B}|Kcp" {
		t.Errorf("String = %q", got)
	}
}

func TestCompoundPrincipalMembersIsCopy(t *testing.T) {
	cp := CP(P("A"), P("B"))
	ms := cp.Members()
	ms[0] = P("evil")
	if cp.Members()[0].Name != "A" {
		t.Error("Members leaked internal slice")
	}
}

func TestSubjectEqual(t *testing.T) {
	if !SubjectEqual(P("A"), P("A")) {
		t.Error("identical principals should be equal")
	}
	if SubjectEqual(P("A"), P("A").Bind("K")) {
		t.Error("bound and unbound should differ")
	}
	if SubjectEqual(nil, P("A")) {
		t.Error("nil vs principal should differ")
	}
	if !SubjectEqual(CP(P("A"), P("B")), CP(P("B"), P("A"))) {
		t.Error("compound equality should be order-insensitive")
	}
	if SubjectEqual(CP(P("A")).WithThreshold(1), CP(P("A"))) {
		t.Error("threshold decoration should distinguish subjects")
	}
}

func TestGroupString(t *testing.T) {
	if got := G("G_write").String(); got != "Group(G_write)" {
		t.Errorf("String = %q", got)
	}
}

// Property: CP construction is idempotent under permutation — quick check
// over random small member sets.
func TestCompoundCanonicalProperty(t *testing.T) {
	f := func(names []uint8) bool {
		if len(names) == 0 || len(names) > 6 {
			return true
		}
		ps := make([]Principal, len(names))
		for i, n := range names {
			ps[i] = P(string(rune('A' + n%26)))
		}
		a := CP(ps...)
		// reverse
		rev := make([]Principal, len(ps))
		for i := range ps {
			rev[i] = ps[len(ps)-1-i]
		}
		b := CP(rev...)
		return a.String() == b.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
