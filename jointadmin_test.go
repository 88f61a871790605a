package jointadmin

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/audit"
	"jointadmin/internal/authz"
)

// newGeneticsAlliance builds the paper's running example: a genetics
// research company, a hospital and a pharmaceutical company jointly
// administering research data.
func newGeneticsAlliance(t *testing.T) (*Alliance, *Server) {
	t.Helper()
	a, err := NewAlliance("genetics", []string{"D1", "D2", "D3"})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"alice", "bob", "carol"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.GrantThreshold("G_write", 2, "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	if err := a.GrantThreshold("G_read", 1, "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{
		"G_write": {"write"},
		"G_read":  {"read"},
	}, []byte("genome v1")); err != nil {
		t.Fatal(err)
	}
	return a, srv
}

// setDown marks domain's share holder in the alliance's AA down: a join
// or leave it must deal in cannot redistribute the shares, and re-keys.
func setDown(t *testing.T, a *Alliance, domain string) {
	t.Helper()
	for _, d := range a.Coalition().AA().Domains() {
		if d.Name == domain {
			d.SetDown(true)
			return
		}
	}
	t.Fatalf("no share holder %s", domain)
}

// spec abbreviates the RequestSpec these tests hand to Submit.
func spec(group, op, object string, payload []byte, signers ...string) RequestSpec {
	return RequestSpec{Group: group, Op: op, Object: object, Payload: payload, Signers: signers}
}

func TestQuickstartFlow(t *testing.T) {
	a, srv := newGeneticsAlliance(t)

	// Figure 2(b): 2-of-3 write approved.
	dec, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("genome v2"), "alice", "bob"))
	if err != nil {
		t.Fatalf("joint write: %v", err)
	}
	if !dec.Allowed {
		t.Fatal("write not allowed")
	}
	got, err := srv.Authz().Objects().Read("O")
	if err != nil || string(got) != "genome v2" {
		t.Errorf("object = %q, %v", got, err)
	}

	// Figure 2(d): 1-of-3 read approved, returning the content.
	dec, err = a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "carol"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(dec.Data) != "genome v2" {
		t.Errorf("read data = %q", dec.Data)
	}

	// A single-signer write is denied (threshold 2).
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("x"), "alice")); !errors.Is(err, ErrDenied) {
		t.Fatalf("unilateral write: %v", err)
	}
}

func TestRevocationViaFacade(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("ok"), "alice", "bob")); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke("G_write", srv); err != nil {
		t.Fatal(err)
	}
	a.Clock().Tick()
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("no"), "alice", "bob")); !errors.Is(err, ErrDenied) {
		t.Fatalf("post-revocation write: %v", err)
	}
	if err := a.Revoke("G_ghost", srv); !errors.Is(err, ErrNoGroup) {
		t.Errorf("revoke unknown group: %v", err)
	}
}

func TestAuditTrailViaFacade(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	_, _ = a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("v2"), "alice", "bob"))
	_, _ = a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("v3"), "alice"))
	log := srv.Audit()
	if len(log.ByOutcome(audit.Approved)) != 1 || len(log.ByOutcome(audit.Denied)) != 1 {
		t.Errorf("audit entries: %s", log.Render())
	}
	approved := log.ByOutcome(audit.Approved)[0]
	if !strings.Contains(approved.ProofTrace, "A38") {
		t.Error("approval proof lacks the threshold axiom")
	}
}

func TestCoalitionDynamicsViaFacade(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	// A cooperative join keeps the AA key: nothing is re-issued, and a
	// server anchored before it still accepts the certificates.
	report, err := a.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 2 || !report.Redistributed || report.CertsReissued != 0 {
		t.Errorf("join report = %+v", report)
	}
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("overlap"), "alice", "bob")); err != nil {
		t.Fatalf("a server anchored before a cooperative join refused its certificates: %v", err)
	}

	// A leave whose departing domain is down re-keys: both certificates
	// are re-issued, and the old server must be re-anchored.
	setDown(t, a, "D4")
	report, err = a.Leave("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 3 || report.Domains != 3 || report.Redistributed || report.CertsReissued != 2 {
		t.Errorf("uncooperative leave report = %+v", report)
	}
	if _, err := a.Submit(context.Background(), srv, spec("G_write", "write", "O", []byte("stale"), "alice", "bob")); err == nil {
		t.Fatal("stale-epoch server accepted new-epoch certificate")
	}
	srv2, err := a.NewServer("P2")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.CreateObject("O", map[string][]string{"G_write": {"write"}}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(context.Background(), srv2, spec("G_write", "write", "O", []byte("fresh"), "alice", "bob")); err != nil {
		t.Fatalf("re-anchored write: %v", err)
	}
}

// TestDistributedKeygenViaFacade runs the public API on the dealerless
// AA key: the domains generate it among themselves (Boneh–Franklin),
// deal a joining domain a share of it, and re-generate it when a domain
// leaves without dealing its share.
func TestDistributedKeygenViaFacade(t *testing.T) {
	a, err := NewAlliance("dealerless", []string{"D1", "D2", "D3"}, WithKeyBits(128), WithDistributedKeygen())
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"alice", "bob", "carol"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.GrantThreshold("G_write", 2, "alice", "bob", "carol"); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{"G_write": {"write"}}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.Submit(ctx, srv, spec("G_write", "write", "O", []byte("v2"), "alice", "bob")); err != nil {
		t.Fatalf("2-of-3 write: %v", err)
	}
	dec, err := a.Submit(ctx, srv, spec("G_write", "write", "O", []byte("x"), "alice"))
	if !errors.Is(err, ErrDenied) || dec.DeniedStep != authz.StepCosign {
		t.Fatalf("lone signer: step %q, %v", dec.DeniedStep, err)
	}

	report, err := a.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Redistributed || report.KeygenAttempts != 0 {
		t.Errorf("cooperative join report = %+v", report)
	}
	if err := a.GrantThreshold("G_write", 2, "alice", "bob", "carol"); err != nil {
		t.Fatalf("issuance under the redistributed shares: %v", err)
	}
	setDown(t, a, "D4")
	if report, err = a.Leave("D4"); err != nil {
		t.Fatal(err)
	}
	if report.KeygenAttempts == 0 {
		t.Error("leave re-keyed without the distributed generator")
	}
	if err := a.Reanchor(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(ctx, srv, spec("G_write", "write", "O", []byte("v3"), "alice", "bob")); err != nil {
		t.Fatalf("write under the re-keyed AA: %v", err)
	}
}

func TestFacadeErrors(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	if _, err := a.Submit(context.Background(), srv, spec("G_ghost", "read", "O", nil, "alice")); !errors.Is(err, ErrNoGroup) {
		t.Errorf("unknown group: %v", err)
	}
	if _, err := a.Submit(context.Background(), srv, spec("G_read", "read", "O", nil, "stranger")); err == nil {
		t.Error("unknown user accepted")
	}
	if err := a.EnrollUser("D9", "x"); err == nil {
		t.Error("enroll in unknown domain accepted")
	}
	if err := srv.CreateObject("bad", map[string][]string{"": {"read"}}, nil); err == nil {
		t.Error("malformed ACL accepted")
	}
	if _, err := a.BoundSubjectsOf("G_ghost"); !errors.Is(err, ErrNoGroup) {
		t.Errorf("BoundSubjectsOf unknown: %v", err)
	}
	subs, err := a.BoundSubjectsOf("G_write")
	if err != nil || len(subs) != 3 {
		t.Errorf("BoundSubjectsOf = %v, %v", subs, err)
	}
}

func TestOptionsApplied(t *testing.T) {
	a, err := NewAlliance("opts", []string{"A", "B"},
		WithKeyBits(512), WithFreshnessWindow(10), WithStartTime(500), WithCertValidity(1000))
	if err != nil {
		t.Fatal(err)
	}
	if a.Clock().Now() != 500 {
		t.Errorf("start time = %v", a.Clock().Now())
	}
	if err := a.EnrollUser("A", "u1"); err != nil {
		t.Fatal(err)
	}
	if err := a.GrantThreshold("G", 1, "u1"); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{"G": {"read"}}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A request inside the freshness window passes...
	if _, err := a.Submit(context.Background(), srv, spec("G", "read", "O", nil, "u1")); err != nil {
		t.Fatalf("fresh request: %v", err)
	}
	// ...and so does one signed after the clock moved on; a request signed
	// before the window passed is denied (TestFacadeStaleRequestDenied).
	a.Clock().Advance(5)
	if _, err := a.Submit(context.Background(), srv, spec("G", "read", "O", nil, "u1")); err != nil {
		t.Fatalf("request after advance: %v", err)
	}
}

// TestFacadeStaleRequestDenied: a request built under WithFreshnessWindow
// and submitted once the window has passed is denied at the freshness
// step through the facade: the error matches ErrDenied and the reason is
// the one the audit log records.
func TestFacadeStaleRequestDenied(t *testing.T) {
	a, err := NewAlliance("stale", []string{"A", "B"}, WithFreshnessWindow(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnrollUser("A", "u1"); err != nil {
		t.Fatal(err)
	}
	if err := a.GrantThreshold("G", 1, "u1"); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{"G": {"read"}}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, err := a.NewRequest(spec("G", "read", "O", nil, "u1"))
	if err != nil {
		t.Fatal(err)
	}
	signed := req.Requests[0].At
	a.Clock().Advance(11)
	dec, err := srv.Request(context.Background(), req)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("stale request: err = %v, want ErrDenied", err)
	}
	if dec.Allowed || dec.DeniedStep != authz.StepFreshness {
		t.Fatalf("stale request: allowed %v at step %v, want a denial at %v", dec.Allowed, dec.DeniedStep, authz.StepFreshness)
	}
	want := "request of u1 at " + signed.String() + " outside freshness window (now " +
		a.Clock().Now().String() + "): authz: request not fresh"
	if dec.Reason != want {
		t.Errorf("reason = %q, want %q", dec.Reason, want)
	}
	if es := srv.Audit().Entries(); len(es) != 1 || es[0].Reason != want {
		t.Errorf("audit log = %+v, want one denial with reason %q", es, want)
	}
}
