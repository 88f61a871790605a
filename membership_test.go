package jointadmin

import (
	"context"
	"errors"
	"testing"

	"jointadmin/internal/coalition"
)

// TestPolicySurvivesCooperativeChangeViaFacade: a cooperative join and
// leave of an uninvolved domain keep the AA key, so a re-anchored server
// keeps every belief: a group link, a delegation chain and a graph link
// still grant, and a revoked threshold certificate, a revoked
// delegation and a revoked identity stay denied.
func TestPolicySurvivesCooperativeChangeViaFacade(t *testing.T) {
	a, err := NewAlliance("policy", []string{"D1", "D2", "D3"})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"alice", "bob", "carol", "dave"} {
		if err := a.EnrollUser(a.Domains()[i%3], u); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		group string
		users []string
	}{{"G_sub", []string{"alice"}}, {"G_graph", []string{"carol"}}, {"G_gone", []string{"alice"}}, {"G_dave", []string{"dave"}}} {
		if err := a.GrantThreshold(g.group, 1, g.users...); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{
		"G_write": {"write"}, "G_read": {"read"}, "G_gone": {"read"}, "G_dave": {"read"},
	}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return a.LinkGroups("G_sub", "G_write", srv) },
		func() error { return a.Delegate("", "alice", "G_read", 1, []string{"read"}, srv) },
		func() error { return a.Delegate("alice", "bob", "G_read", 0, []string{"read"}, srv) },
		func() error { return a.LinkGroupGraph("G_graph", "G_read", 1, srv) },
		func() error { return a.Delegate("", "carol", "G_write", 0, []string{"write"}, srv) },
		func() error { return a.Revoke("G_gone", srv) },
		func() error { return a.RevokeDelegation("carol", "G_write", srv) },
		func() error { return a.RevokeIdentity("dave", srv) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	granted := map[string]RequestSpec{
		"group link":       spec("G_sub", "write", "O", []byte("via link"), "alice"),
		"delegation chain": {Group: "G_read", Op: "read", Object: "O", Signers: []string{"bob"}, Delegated: true},
		"graph link":       spec("G_graph", "read", "O", nil, "carol"),
	}
	revoked := map[string]RequestSpec{
		"revoked threshold":  spec("G_gone", "read", "O", nil, "alice"),
		"revoked delegation": {Group: "G_write", Op: "write", Object: "O", Payload: []byte("x"), Signers: []string{"carol"}, Delegated: true},
		"revoked identity":   spec("G_dave", "read", "O", nil, "dave"),
	}
	ctx := context.Background()
	for _, ev := range []struct {
		name   string
		change func(string) (coalition.RekeyReport, error)
	}{{"before", nil}, {"join", a.Join}, {"leave", a.Leave}} {
		if ev.change != nil {
			report, err := ev.change("D4")
			if err != nil || !report.Redistributed {
				t.Fatalf("%s D4: %+v, %v", ev.name, report, err)
			}
			if err := a.Reanchor(srv); err != nil {
				t.Fatal(err)
			}
		}
		a.Clock().Tick()
		for name, s := range granted {
			if dec, err := a.Submit(ctx, srv, s); err != nil || !dec.Allowed {
				t.Errorf("%s, %s: %+v, %v", name, ev.name, dec, err)
			}
		}
		for name, s := range revoked {
			if dec, err := a.Submit(ctx, srv, s); !errors.Is(err, ErrDenied) {
				t.Errorf("%s, %s: %+v, %v, want denied", name, ev.name, dec, err)
			}
		}
	}
}
