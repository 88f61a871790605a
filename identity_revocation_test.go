package jointadmin

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestIdentityRevocation: after bob's domain CA withdraws his key binding,
// joint requests counting on bob's signature are denied — even though the
// threshold attribute certificate itself is still valid. The other users'
// quorums keep working.
func TestIdentityRevocation(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	// Baseline: alice+bob write works.
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("v2"), "alice", "bob")); err != nil {
		t.Fatal(err)
	}

	if err := a.RevokeIdentity("bob", srv); err != nil {
		t.Fatal(err)
	}
	a.Clock().Tick()

	// bob's signature no longer counts: alice+bob is now below threshold.
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("v3"), "alice", "bob")); !errors.Is(err, ErrDenied) {
		t.Fatalf("write with revoked identity: %v", err)
	}
	// alice+carol still form a valid quorum under the same certificate.
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("v3"), "alice", "carol")); err != nil {
		t.Fatalf("write after unrelated identity revocation: %v", err)
	}
	// bob alone cannot read either.
	if _, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "bob")); !errors.Is(err, ErrDenied) {
		t.Fatalf("read with revoked identity: %v", err)
	}
	// carol can.
	if _, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "carol")); err != nil {
		t.Fatalf("read by unaffected user: %v", err)
	}
}

func TestIdentityRevocationUnknownUser(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if err := a.RevokeIdentity("nobody", srv); err == nil {
		t.Fatal("revocation of unknown user succeeded")
	}
}

// TestIdentityRevocationSurvivesRekey: a join or leave re-keys the AA but
// not the domain CAs, so bob's identity certificate still verifies after
// it; the CA's revocation of his key must outlive the re-anchoring too —
// a bare one, a join's and a leave's — while carol's reads keep passing.
func TestIdentityRevocationSurvivesRekey(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if err := a.RevokeIdentity("bob", srv); err != nil {
		t.Fatal(err)
	}
	a.Clock().Tick()
	if _, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "bob")); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob's read after the revocation: %v", err)
	}
	for _, change := range []struct {
		name string
		run  func() error
	}{
		{"a bare re-anchoring", func() error { return nil }},
		{"join D4", func() error { _, err := a.Join("D4"); return err }},
		{"leave D4", func() error { _, err := a.Leave("D4"); return err }},
	} {
		if err := change.run(); err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		if err := a.Reanchor(srv); err != nil {
			t.Fatalf("%s: re-anchor: %v", change.name, err)
		}
		a.Clock().Tick()
		_, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "bob"))
		if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "revoked") {
			t.Fatalf("after %s: bob's read: %v, want a denial for his revoked key", change.name, err)
		}
		if _, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "carol")); err != nil {
			t.Fatalf("after %s: carol's read: %v", change.name, err)
		}
	}
}
