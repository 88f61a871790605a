package jointadmin

import (
	"context"
	"errors"
	"testing"
)

// auditRead is user's read of AuditLog under group's single-subject
// certificate (the A35 path).
func auditRead(group, user string) RequestSpec {
	return RequestSpec{Group: group, Op: "read", Object: "AuditLog", Signers: []string{user}, Selective: true}
}

func TestSelectiveGrantAndRequest(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	// carol alone gets a personal auditor credential bound to her key.
	if err := a.GrantSelective("G_audit", "carol"); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("AuditLog", map[string][]string{
		"G_audit": {"read"},
	}, []byte("audit records")); err != nil {
		t.Fatal(err)
	}
	dec, err := a.Submit(context.Background(), srv, auditRead("G_audit", "carol"))
	if err != nil {
		t.Fatalf("selective read: %v", err)
	}
	if string(dec.Data) != "audit records" {
		t.Errorf("data = %q", dec.Data)
	}
	// alice does not hold the credential.
	if _, err := a.Submit(context.Background(), srv, auditRead("G_audit", "alice")); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-subject selective read: %v", err)
	}
	// Unknown group.
	if _, err := a.Submit(context.Background(), srv, auditRead("G_ghost", "carol")); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("unknown group: %v", err)
	}
}

func TestSelectiveSurvivesRekey(t *testing.T) {
	a, _ := newGeneticsAlliance(t)
	if err := a.GrantSelective("G_audit", "carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("D4"); err != nil {
		t.Fatal(err)
	}
	setDown(t, a, "D4")
	report, err := a.Leave("D4")
	if err != nil {
		t.Fatal(err)
	}
	// An uncooperative leave re-keys: 2 threshold + 1 selective revoked
	// and re-issued.
	if report.CertsRevoked != 3 || report.CertsReissued != 3 {
		t.Errorf("report = %+v, want 3 revoked / 3 re-issued", report)
	}
	srv, err := a.NewServer("P2")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("AuditLog", map[string][]string{
		"G_audit": {"read"},
	}, []byte("records")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(context.Background(), srv, auditRead("G_audit", "carol")); err != nil {
		t.Fatalf("selective read after rekey: %v", err)
	}
}

// TestSelectiveSurvivesRedistribution is the cooperative counterpart: a
// join keeps the selective certificate as it is, on a server anchored
// before the join and on one anchored after it.
func TestSelectiveSurvivesRedistribution(t *testing.T) {
	a, before := newGeneticsAlliance(t)
	if err := a.GrantSelective("G_audit", "carol"); err != nil {
		t.Fatal(err)
	}
	report, err := a.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.CertsRevoked != 0 || report.CertsReissued != 0 || !report.Redistributed {
		t.Errorf("report = %+v, want a redistribution revoking and re-issuing nothing", report)
	}
	after, err := a.NewServer("P2")
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{before, after} {
		if err := srv.CreateObject("AuditLog", map[string][]string{"G_audit": {"read"}}, []byte("records")); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Submit(context.Background(), srv, auditRead("G_audit", "carol")); err != nil {
			t.Fatalf("selective read after a cooperative join: %v", err)
		}
	}
}

func TestSelectiveRevocationViaFacade(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if err := a.GrantSelective("G_audit", "carol"); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("AuditLog", map[string][]string{
		"G_audit": {"read"},
	}, []byte("records")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(context.Background(), srv, auditRead("G_audit", "carol")); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke("G_audit", srv); err != nil {
		t.Fatal(err)
	}
	a.Clock().Tick()
	if _, err := a.Submit(context.Background(), srv, auditRead("G_audit", "carol")); !errors.Is(err, ErrDenied) {
		t.Fatalf("selective read after revocation: %v", err)
	}
}
