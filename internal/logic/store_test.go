package logic

import (
	"testing"
)

func TestBeliefStoreAddAndHolds(t *testing.T) {
	s := NewBeliefStore()
	f := Prop{Name: "x"}
	e := s.Add(f, 3, 1)
	if e.At != 3 || e.Step != 1 {
		t.Errorf("entry = %+v", e)
	}
	got, ok := s.Holds(f)
	if !ok || !FormulaEqual(got.F, f) {
		t.Errorf("Holds = %+v, %v", got, ok)
	}
	if _, ok := s.Holds(Prop{Name: "y"}); ok {
		t.Error("unknown formula should not be held")
	}
	// Re-adding keeps the original entry.
	e2 := s.Add(f, 9, 7)
	if e2.At != 3 || e2.Step != 1 {
		t.Errorf("duplicate add replaced entry: %+v", e2)
	}
	if len(s.All()) != 1 {
		t.Errorf("Len = %d", len(s.All()))
	}
}

func TestBeliefStoreKeyFor(t *testing.T) {
	s := NewBeliefStore()
	ks := KeySpeaksFor{K: "Kq", T: During(0, 10), Who: P("Q")}
	s.Add(ks, 0, 1)
	got, ok := s.KeyFor("Q", 5)
	if !ok || got.K != "Kq" {
		t.Errorf("KeyFor = %v, %v", got, ok)
	}
	if _, ok := s.KeyFor("Q", 11); ok {
		t.Error("expired key returned")
	}
	if _, ok := s.KeyFor("R", 5); ok {
		t.Error("key for unknown principal returned")
	}
	// Compound-principal key lookup by canonical name.
	cp := CP(P("D1"), P("D2")).WithThreshold(2)
	s.Add(KeySpeaksFor{K: "KAA", T: During(0, 10), Who: cp}, 0, 2)
	if _, ok := s.KeyFor(cp.String(), 5); !ok {
		t.Error("compound key not found by canonical name")
	}
}

func TestBeliefStoreMembershipForAndRevocation(t *testing.T) {
	s := NewBeliefStore()
	cp := thresholdCP23()
	m := MemberOf{Who: cp, T: During(0, 100), G: G("G_write")}
	s.Add(m, 1, 1)

	if got, ok := s.Holds(m); !ok || !FormulaEqual(got.F, m) {
		t.Fatalf("Holds = %v, %v", got, ok)
	}

	// Revoke effective at t=60: the membership stands at 50 and is
	// revoked from 60 on.
	s.Revoke(cp, G("G_write"), 60, 2)
	if s.Revoked(cp, G("G_write"), 50) {
		t.Error("membership before revocation should hold")
	}
	if !s.Revoked(cp, G("G_write"), 60) {
		t.Error("membership at revocation time should fail")
	}
	if !s.Revoked(cp, G("G_write"), 61) {
		t.Error("Revoked should report true after effective time")
	}
	if s.Revoked(cp, G("G_read"), 61) {
		t.Error("revocation must be group-specific")
	}
	if n := len(s.Revocations()); n != 1 {
		t.Errorf("Revocations len = %d", n)
	}
}

func TestRevocationAliasesThresholdDecoration(t *testing.T) {
	// Revoking CP(2,3) ⇒ G must also block the plain CP and vice versa —
	// the revocation names the same member set.
	s := NewBeliefStore()
	plain := CP(P("U1"), P("U2"), P("U3"))
	thresh := CP(P("U1").Bind("K1"), P("U2").Bind("K2"), P("U3").Bind("K3")).WithThreshold(2)
	s.Revoke(thresh, G("g"), 10, 1)
	if !s.Revoked(plain, G("g"), 11) {
		t.Error("plain CP should be blocked by threshold revocation")
	}
	// A different member set is unaffected.
	other := CP(P("U1"), P("U9"), P("U3"))
	if s.Revoked(other, G("g"), 11) {
		t.Error("different member set wrongly revoked")
	}
	// A simple principal with the same name as no member is unaffected.
	if s.Revoked(P("U1"), G("g"), 11) {
		t.Error("simple principal wrongly aliased to compound revocation")
	}
}

func TestBeliefStoreJurisdictionLookups(t *testing.T) {
	s := NewBeliefStore()
	s.Add(KeyJurisdiction{CA: P("CA1")}, 0, 1)
	s.Add(MembershipJurisdiction{Authority: P("AA"), AuthorityName: "AA"}, 0, 2)
	s.Add(SaysTimeJurisdiction{Authority: P("AA"), Since: 1, Server: "P"}, 0, 3)

	if _, ok := s.KeyJurisdictionFor("CA1"); !ok {
		t.Error("KeyJurisdictionFor(CA1) missing")
	}
	if _, ok := s.KeyJurisdictionFor("CA2"); ok {
		t.Error("KeyJurisdictionFor(CA2) should be absent")
	}
	if _, ok := s.MembershipJurisdictionFor("AA"); !ok {
		t.Error("MembershipJurisdictionFor(AA) missing")
	}
	if _, ok := s.SaysTimeJurisdictionFor("AA"); !ok {
		t.Error("SaysTimeJurisdictionFor(AA) missing")
	}
}

func TestBeliefStoreAllIsCopy(t *testing.T) {
	s := NewBeliefStore()
	s.Add(Prop{Name: "x"}, 0, 1)
	all := s.All()
	all[0].F = Prop{Name: "mutated"}
	if got, _ := s.Holds(Prop{Name: "x"}); !FormulaEqual(got.F, Prop{Name: "x"}) {
		t.Error("All leaked internal state")
	}
}

func TestRevokeKeyHidesBinding(t *testing.T) {
	s := NewBeliefStore()
	s.Add(KeySpeaksFor{K: "Ku", T: During(0, 100), Who: P("U")}, 0, 1)
	if _, ok := s.KeyFor("U", 10); !ok {
		t.Fatal("key missing before revocation")
	}
	s.RevokeKey("Ku", 20)
	if s.KeyRevoked("Ku", 19) {
		t.Error("revoked before effective time")
	}
	if !s.KeyRevoked("Ku", 20) || !s.KeyRevoked("Ku", 50) {
		t.Error("not revoked at/after effective time")
	}
	if _, ok := s.KeyFor("U", 10); !ok {
		t.Error("pre-revocation lookup should still succeed")
	}
	if _, ok := s.KeyFor("U", 20); ok {
		t.Error("post-revocation lookup succeeded")
	}
	// Earlier revocation wins.
	s.RevokeKey("Ku", 5)
	if _, ok := s.KeyFor("U", 10); ok {
		t.Error("earlier revocation not honored")
	}
	// Unknown keys are not revoked.
	if s.KeyRevoked("Kother", 99) {
		t.Error("unknown key reported revoked")
	}
}

func TestEffectiveGroupsCycleSafe(t *testing.T) {
	s := NewBeliefStore()
	s.Add(GroupSpeaksFor{Sub: G("A"), T: During(0, 100), Sup: G("B")}, 0, 1)
	s.Add(GroupSpeaksFor{Sub: G("B"), T: During(0, 100), Sup: G("A")}, 0, 2)
	s.Add(GroupSpeaksFor{Sub: G("B"), T: During(0, 100), Sup: G("C")}, 0, 3)
	got := s.EffectiveGroups(G("A"), 10)
	if len(got) != 3 {
		t.Fatalf("closure = %v, want {A,B,C}", got)
	}
	// Expired links do not contribute.
	got = s.EffectiveGroups(G("A"), 200)
	if len(got) != 1 || got[0] != G("A") {
		t.Errorf("expired closure = %v", got)
	}
	// Links are directional: starting at C reaches nothing.
	got = s.EffectiveGroups(G("C"), 10)
	if len(got) != 1 {
		t.Errorf("reverse closure = %v", got)
	}
}
