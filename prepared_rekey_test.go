package jointadmin

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"jointadmin/internal/authz"
	"jointadmin/internal/coalition"
)

// TestPreparedRekeyTakesEffectAtCommit: between a re-keying join's or
// leave's prepare and its commit (a member, or the departing domain, is
// down, so neither can be dealt), requests are built and approved under
// the outgoing epoch. From the commit and re-anchor on, a request signed
// in between is denied at step 2 (its certificate is the old AA key's),
// and after a leave a user of the departed domain is denied.
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
		down    string
	}{{"join", a.PrepareJoin, "D4", "D1"}, {"leave", a.PrepareLeave, "D3", "D3"}} {
		oldAA := a.Coalition().AA().Public().KeyID()
		setDown(t, a, ev.down)
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
		if _, err := a.NewRequest(spec("G_read", "read", "O", nil, "carol")); err == nil || !strings.Contains(err.Error(), "coalition: unknown user") {
			t.Errorf("request by carol after D3 left: %v, want the coalition's unknown user", err)
		}
	}
	if got := a.Coalition().Epoch(); got != 3 {
		t.Errorf("epoch = %d after a join and a leave, want 3", got)
	}
}

// TestCooperativeChangeTakesEffectAtCommit is the redistribution
// counterpart: the AA key does not change, so a request signed between
// a cooperative join's or leave's prepare and its commit is still
// approved after the commit and re-anchor — certificates stay valid to
// their end — except that from a leave's commit on, a user of the
// departed domain is denied: its CA is no longer anchored.
func TestCooperativeChangeTakesEffectAtCommit(t *testing.T) {
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
	key := a.Coalition().AA().Public().KeyID()
	for _, ev := range []struct {
		verb    string
		prepare func(string) (*coalition.Rekey, error)
		domain  string
	}{{"join", a.PrepareJoin, "D4"}, {"leave", a.PrepareLeave, "D3"}} {
		r, err := ev.prepare(ev.domain)
		if err != nil {
			t.Fatal(err)
		}
		between, carol := read("bob"), read("carol")
		report, err := a.Commit(r)
		if err != nil || !report.Redistributed {
			t.Fatalf("commit %s: %+v, %v", ev.verb, report, err)
		}
		if err := a.Reanchor(srv); err != nil {
			t.Fatal(err)
		}
		a.Clock().Tick()
		approved("bob, signed before "+ev.verb+"'s commit", between)
		approved("alice, after "+ev.verb, read("alice"))
		if ev.verb == "join" {
			approved("carol, signed before the join's commit", carol)
			continue
		}
		denied(t, srv, "carol, signed before D3's leave committed", carol, authz.StepCerts,
			"identity certificate from untrusted CA CA_D3")
	}
	if got := a.Coalition().AA().Public().KeyID(); got != key {
		t.Errorf("AA key %s after a cooperative join and leave, want %s", got, key)
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
