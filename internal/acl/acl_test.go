package acl

import (
	"errors"
	"testing"

	"jointadmin/internal/clock"
)

func objectACL(t *testing.T) *ACL {
	t.Helper()
	a, err := NewACL(
		Entry{Group: "G_write", Perms: []Permission{Write}},
		Entry{Group: "G_read", Perms: []Permission{Read}},
		Entry{Group: "G_policy", Perms: []Permission{Modify}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestACLAllows(t *testing.T) {
	a := objectACL(t)
	tests := []struct {
		group string
		perm  Permission
		want  bool
	}{
		{"G_write", Write, true},
		{"G_write", Read, false},
		{"G_read", Read, true},
		{"G_read", Write, false},
		{"G_policy", Modify, true},
		{"G_nope", Read, false},
	}
	for _, tt := range tests {
		if got := a.Allows(tt.group, tt.perm); got != tt.want {
			t.Errorf("Allows(%s, %s) = %v, want %v", tt.group, tt.perm, got, tt.want)
		}
	}
}

func TestACLValidation(t *testing.T) {
	if _, err := NewACL(Entry{Group: "", Perms: []Permission{Read}}); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty group: %v", err)
	}
	if _, err := NewACL(Entry{Group: "G", Perms: nil}); !errors.Is(err, ErrBadEntry) {
		t.Errorf("no perms: %v", err)
	}
	if _, err := NewACL(Entry{Group: "G", Perms: []Permission{""}}); !errors.Is(err, ErrBadEntry) {
		t.Errorf("empty perm: %v", err)
	}
}

func TestACLGroupsAndString(t *testing.T) {
	a := objectACL(t)
	if s := a.String(); s == "" || s[0] != '{' {
		t.Errorf("String = %q", s)
	}
}

func TestACLEntriesAreCopies(t *testing.T) {
	a := objectACL(t)
	es := a.Entries()
	es[0].Group = "evil"
	es[0].Perms[0] = "stolen"
	if !a.Allows("G_write", Write) {
		t.Error("Entries leaked internal state")
	}
}

func TestStoreCreateReadWrite(t *testing.T) {
	clk := clock.New(100)
	s := NewStore(clk)
	if err := s.Create("O", objectACL(t), []byte("v1"), "G_policy"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("O", objectACL(t), nil, "G_policy"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	got, err := s.Read("O")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	clk.Tick()
	if err := s.Write("O", []byte("v2"), "G_write"); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read("O")
	if string(got) != "v2" {
		t.Errorf("after write: %q", got)
	}
	if _, err := s.Read("missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing object: %v", err)
	}
	if err := s.Write("missing", nil, "g"); !errors.Is(err, ErrNoObject) {
		t.Errorf("write missing: %v", err)
	}
}

func TestStoreSetACLAndHistory(t *testing.T) {
	clk := clock.New(100)
	s := NewStore(clk)
	if err := s.Create("O", objectACL(t), []byte("data"), "G_policy"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5)
	tightened, err := NewACL(Entry{Group: "G_read", Perms: []Permission{Read}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetACL("O", tightened, "G_policy"); err != nil {
		t.Fatal(err)
	}
	a, err := s.ACLOf("O")
	if err != nil {
		t.Fatal(err)
	}
	if a.Allows("G_write", Write) {
		t.Error("old entry survived SetACL")
	}
	// Content carried over.
	got, _ := s.Read("O")
	if string(got) != "data" {
		t.Errorf("content after SetACL = %q", got)
	}
	if err := s.SetACL("missing", tightened, "g"); !errors.Is(err, ErrNoObject) {
		t.Errorf("SetACL missing: %v", err)
	}
}

func TestStoreNames(t *testing.T) {
	s := NewStore(clock.New(0))
	for _, n := range []string{"zeta", "alpha"} {
		if err := s.Create(n, objectACL(t), nil, "g"); err != nil {
			t.Fatal(err)
		}
	}
	ns := s.Names()
	if len(ns) != 2 || ns[0] != "alpha" || ns[1] != "zeta" {
		t.Errorf("Names = %v", ns)
	}
}

func TestStoreContentIsolation(t *testing.T) {
	s := NewStore(clock.New(0))
	content := []byte("original")
	if err := s.Create("O", objectACL(t), content, "g"); err != nil {
		t.Fatal(err)
	}
	content[0] = 'X'
	got, _ := s.Read("O")
	if string(got) != "original" {
		t.Error("Create aliased caller's buffer")
	}
	got[0] = 'Y'
	got2, _ := s.Read("O")
	if string(got2) != "original" {
		t.Error("Read leaked internal buffer")
	}
}
