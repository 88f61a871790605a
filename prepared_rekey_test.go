package jointadmin

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"jointadmin/internal/authz"
	"jointadmin/internal/coalition"
)

// TestPreparedRekeyTakesEffectAtCommit: between a join's or leave's
// prepare and its commit, requests are built and approved under the
// outgoing epoch. From the commit and re-anchor on, a request signed in
// between is denied at step 2 (its certificate is the old AA key's), and
// after a leave a user of the departed domain is denied.
func TestPreparedRekeyTakesEffectAtCommit(t *testing.T) {
	a, srv := newGeneticsAlliance(t) // alice→D1, bob→D2, carol→D3
	ctx := context.Background()
	read := func(signer string) AccessRequest {
		t.Helper()
		a.Clock().Tick()
		req, err := a.NewRequest(spec("G_read", "read", "O", nil, signer))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	approved := func(what string, req AccessRequest) {
		t.Helper()
		if dec, err := srv.Request(ctx, req); err != nil || !dec.Allowed {
			t.Fatalf("%s: %+v, %v", what, dec, err)
		}
	}
	for _, ev := range []struct {
		verb    string
		prepare func(string) (*coalition.Rekey, error)
		domain  string
	}{{"join", a.PrepareJoin, "D4"}, {"leave", a.PrepareLeave, "D3"}} {
		oldAA := a.Coalition().AA().Public().KeyID()
		r, err := ev.prepare(ev.domain)
		if err != nil {
			t.Fatal(err)
		}
		between := read("bob")
		approved("bob, between "+ev.verb+"'s prepare and commit", between)
		carol := read("carol")
		approved("carol, between "+ev.verb+"'s prepare and commit", carol)
		if _, err := a.Commit(r); err != nil {
			t.Fatalf("commit %s: %v", ev.verb, err)
		}
		if err := a.Reanchor(srv); err != nil {
			t.Fatal(err)
		}
		a.Clock().Tick() // past the re-issued certificates' notBefore
		reason := fmt.Sprintf("threshold attribute certificate invalid: pki: certificate signature invalid: signed by key %s, verifying with %s",
			oldAA, a.Coalition().AA().Public().KeyID())
		denied(t, srv, "bob, signed before "+ev.verb+"'s commit", between, authz.StepThreshold, reason)
		approved("alice, after "+ev.verb, read("alice"))
		if ev.verb == "join" {
			approved("carol, after join", read("carol"))
			continue
		}
		denied(t, srv, "carol, signed before D3's leave committed", carol, authz.StepCerts,
			"identity certificate from untrusted CA CA_D3")
		if _, err := a.NewRequest(spec("G_read", "read", "O", nil, "carol")); !errors.Is(err, coalition.ErrUnknownUser) {
			t.Errorf("request by carol after D3 left: %v, want ErrUnknownUser", err)
		}
	}
	if got := a.Coalition().Epoch(); got != 3 {
		t.Errorf("epoch = %d after a join and a leave, want 3", got)
	}
}

func denied(t *testing.T, srv *Server, what string, req AccessRequest, step, reason string) {
	t.Helper()
	dec, err := srv.Request(context.Background(), req)
	if !errors.Is(err, ErrDenied) || dec.DeniedStep != step || dec.Reason != reason {
		t.Errorf("%s: step %q, reason %q (%v), want denied at %s with %q", what, dec.DeniedStep, dec.Reason, err, step, reason)
	}
}
