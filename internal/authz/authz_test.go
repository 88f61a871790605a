package authz

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/authority"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// fixture is the full Figure 1 deployment: three domains with CAs and one
// user each, the coalition AA (dealer-established for test speed), an RA,
// and the server P managing Object O.
type fixture struct {
	clk     *clock.Clock
	est     *authority.EstablishResult
	ra      *authority.RevocationAuthority
	cas     map[string]*authority.DomainCA
	users   map[string]*pki.KeyPair
	idCerts map[string]pki.Signed[pki.Identity]
	writeAC pki.Signed[pki.ThresholdAttribute]
	readAC  pki.Signed[pki.ThresholdAttribute]
	server  *Server
	log     *audit.Log
}

var (
	fixOnce sync.Once
	fixVal  *fixture
	fixErr  error
)

// newFixture builds the deployment once; tests requiring mutation build
// their own server over the shared crypto material.
func newFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() { fixVal, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixVal
}

func buildFixture() (*fixture, error) {
	clk := clock.New(100)
	est, err := authority.EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clk)
	if err != nil {
		return nil, err
	}
	ra, err := authority.NewRA("RA", 512, clk)
	if err != nil {
		return nil, err
	}
	f := &fixture{
		clk: clk, est: est, ra: ra,
		cas:     make(map[string]*authority.DomainCA),
		users:   make(map[string]*pki.KeyPair),
		idCerts: make(map[string]pki.Signed[pki.Identity]),
	}
	for i := 1; i <= 3; i++ {
		caName := "CA" + string(rune('0'+i))
		userName := "User_D" + string(rune('0'+i))
		ca, err := authority.NewDomainCA(caName, 512, clk)
		if err != nil {
			return nil, err
		}
		kp, err := pki.GenerateKeyPair(512, nil)
		if err != nil {
			return nil, err
		}
		ca.Register(userName, kp.Public())
		idc, err := ca.IssueIdentity(userName, clock.NewInterval(50, 5000))
		if err != nil {
			return nil, err
		}
		f.cas[caName] = ca
		f.users[userName] = kp
		f.idCerts[userName] = idc
	}
	subs := f.subjects()
	f.writeAC, err = est.AA.IssueThreshold("G_write", 2, subs, clock.NewInterval(50, 5000))
	if err != nil {
		return nil, err
	}
	f.readAC, err = est.AA.IssueThreshold("G_read", 1, subs, clock.NewInterval(50, 5000))
	if err != nil {
		return nil, err
	}
	f.log = audit.NewLog()
	f.server = f.newServer(f.log)
	return f, nil
}

func (f *fixture) subjects() []pki.BoundSubject {
	var out []pki.BoundSubject
	for i := 1; i <= 3; i++ {
		u := "User_D" + string(rune('0'+i))
		out = append(out, pki.BoundSubject{Name: u, KeyID: f.users[u].KeyID()})
	}
	return out
}

// newServer builds a server over the fixture's trust material with Object
// O installed.
func (f *fixture) newServer(log *audit.Log) *Server {
	return f.newServerFreshness(log, 0)
}

// anchors builds the fixture's trust anchors with a freshness window.
func (f *fixture) anchors(freshness int64) TrustAnchors {
	anchors := TrustAnchors{
		AAName:          "AA",
		AAKey:           f.est.AA.Public(),
		Domains:         []string{"D1", "D2", "D3"},
		CAKeys:          make(map[string]sharedrsa.PublicKey, 3),
		RAName:          "RA",
		RAKey:           f.ra.Public(),
		TrustSince:      0,
		FreshnessWindow: freshness,
	}
	for name, ca := range f.cas {
		anchors.CAKeys[name] = ca.Public()
	}
	return anchors
}

// rekeyedAnchors are f's anchors after a re-key: the same CAs and RA,
// and a new AA key, under which nothing the fixture's AA signed
// verifies.
func (f *fixture) rekeyedAnchors(t *testing.T) TrustAnchors {
	t.Helper()
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := f.anchors(0)
	a.AAKey = kp.Public()
	return a
}

// newServerFreshness is newServer with a freshness window in the anchors
// (anchors are immutable once the server is running).
func (f *fixture) newServerFreshness(log *audit.Log, freshness int64) *Server {
	store := acl.NewStore(f.clk)
	objACL, err := acl.NewACL(
		acl.Entry{Group: "G_write", Perms: []acl.Permission{acl.Write}},
		acl.Entry{Group: "G_read", Perms: []acl.Permission{acl.Read}},
		acl.Entry{Group: "G_policy", Perms: []acl.Permission{acl.Modify}},
	)
	if err != nil {
		panic(err)
	}
	if err := store.Create("O", objACL, []byte("genome v1"), "G_policy"); err != nil {
		panic(err)
	}
	return NewServer("P", f.clk, f.anchors(freshness), store, log)
}

// writeRequest builds the Figure 2(b) joint write request signed by the
// named users.
func (f *fixture) writeRequest(t testing.TB, payload []byte, signers ...string) AccessRequest {
	t.Helper()
	return f.thresholdRequest(t, f.writeAC, acl.Write, "O", payload, signers...)
}

// thresholdRequest builds a joint request under an arbitrary threshold
// certificate, for an arbitrary operation and object.
func (f *fixture) thresholdRequest(t testing.TB, ac pki.Signed[pki.ThresholdAttribute], op acl.Permission, object string, payload []byte, signers ...string) AccessRequest {
	t.Helper()
	req := AccessRequest{Threshold: ac}
	for _, u := range signers {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, f.clk.Now(), op, object, payload, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	return req
}

func TestFigure2WriteFlow(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil) // cold: the proof is the paper's derivation, not a cached residue
	req := f.writeRequest(t, []byte("genome v2"), "User_D1", "User_D2")
	dec, err := server.Authorize(context.Background(), req)
	if err != nil {
		t.Fatalf("write 2-of-3: %v", err)
	}
	if !dec.Allowed || dec.Group != "G_write" {
		t.Errorf("decision = %+v", dec)
	}
	got, err := server.Objects().Read("O")
	if err != nil || string(got) != "genome v2" {
		t.Errorf("object = %q, %v", got, err)
	}
	// The proof trace must mirror the paper's derivation: A10, the
	// jurisdiction chain, the reduction, and A38.
	trace := dec.Proof.String()
	for _, frag := range []string{"A10", "A22", "A9", "A38", "G_write"} {
		if !strings.Contains(trace, frag) {
			t.Errorf("trace missing %q", frag)
		}
	}
}

func TestWriteDeniedWithOneSigner(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.writeRequest(t, []byte("unilateral"), "User_D1")
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("1-of-2-of-3 write: %v", err)
	}
	// Object unchanged.
	got, _ := server.Objects().Read("O")
	if string(got) != "genome v1" {
		t.Errorf("object mutated on denial: %q", got)
	}
}

func TestFigure2ReadFlow(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := AccessRequest{Threshold: f.readAC}
	req.Identities = append(req.Identities, f.idCerts["User_D3"])
	r, err := SignRequest("User_D3", f.clk.Now(), acl.Read, "O", nil, f.users["User_D3"])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	dec, err := server.Authorize(context.Background(), req)
	if err != nil {
		t.Fatalf("read 1-of-3: %v", err)
	}
	if string(dec.Data) != "genome v1" {
		t.Errorf("read data = %q", dec.Data)
	}
	if dec.Group != "G_read" {
		t.Errorf("group = %s", dec.Group)
	}
}

func TestReadCertificateCannotWrite(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	// Use the read certificate (1-of-3, G_read) for a write: Step 4 must
	// reject because (G_read, write) ∉ ACL_O.
	req := AccessRequest{Threshold: f.readAC}
	req.Identities = append(req.Identities, f.idCerts["User_D1"])
	r, err := SignRequest("User_D1", f.clk.Now(), acl.Write, "O", []byte("sneak"), f.users["User_D1"])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	_, err = server.Authorize(context.Background(), req)
	if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "∉ ACL") {
		t.Fatalf("read-cert write: %v", err)
	}
}

func TestForgedRequestSignatureDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	// User_D2's component resigned by User_D1's key (simulating theft of
	// the request without the right private key).
	bad, err := SignRequest("User_D2", f.clk.Now(), acl.Write, "O", []byte("x"), f.users["User_D1"])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests[1] = bad
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("forged signature accepted: %v", err)
	}
}

func TestTamperedPayloadDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.writeRequest(t, []byte("agreed content"), "User_D1", "User_D2")
	// The requestor swaps the payload after collecting co-signatures.
	req.Requests[0].Payload = []byte("swapped content")
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("tampered payload accepted: %v", err)
	}
}

func TestDivergentPayloadsDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := AccessRequest{Threshold: f.writeAC}
	for i, u := range []string{"User_D1", "User_D2"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		payload := []byte("version A")
		if i == 1 {
			payload = []byte("version B")
		}
		r, err := SignRequest(u, f.clk.Now(), acl.Write, "O", payload, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("divergent payloads accepted: %v", err)
	}
}

func TestMissingIdentityCertificateDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	req.Identities = req.Identities[:1] // drop User_D2's certificate
	_, err := server.Authorize(context.Background(), req)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("missing identity accepted: %v", err)
	}
}

func TestNonSubjectSignerDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	// A fourth user with a valid identity from CA1 but not listed in the
	// threshold certificate cannot contribute to the quorum.
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.cas["CA1"].Register("Outsider", kp.Public())
	idc, err := f.cas["CA1"].IssueIdentity("Outsider", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	req := f.writeRequest(t, []byte("x"), "User_D1")
	req.Identities = append(req.Identities, idc)
	r, err := SignRequest("Outsider", f.clk.Now(), acl.Write, "O", []byte("x"), kp)
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-subject signer accepted: %v", err)
	}
}

func TestRevocationReasoning(t *testing.T) {
	// E6: after the RA revokes the write certificate, the previously
	// sufficient joint request is denied (believe-until-revoked).
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.writeRequest(t, []byte("before revocation"), "User_D1", "User_D2")
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatalf("pre-revocation write: %v", err)
	}

	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatalf("process revocation: %v", err)
	}
	f.clk.Tick()
	req2 := f.writeRequest(t, []byte("after revocation"), "User_D1", "User_D2")
	if _, err := server.Authorize(context.Background(), req2); !errors.Is(err, ErrDenied) {
		t.Fatalf("post-revocation write: %v", err)
	}
	// Reads under the separate G_read certificate still work.
	readReq := AccessRequest{Threshold: f.readAC}
	readReq.Identities = append(readReq.Identities, f.idCerts["User_D3"])
	r, err := SignRequest("User_D3", f.clk.Now(), acl.Read, "O", nil, f.users["User_D3"])
	if err != nil {
		t.Fatal(err)
	}
	readReq.Requests = append(readReq.Requests, r)
	if _, err := server.Authorize(context.Background(), readReq); err != nil {
		t.Fatalf("read after unrelated revocation: %v", err)
	}
}

func TestRevocationFromUntrustedIssuer(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	evilRA, err := authority.NewRA("EvilRA", 512, f.clk)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := evilRA.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Apply(context.Background(), Revocation{Cert: rev}); !errors.Is(err, ErrDenied) {
		t.Fatalf("untrusted revocation accepted: %v", err)
	}
}

func TestPolicyObjectModification(t *testing.T) {
	// "Setting and updating policy objects is handled in a manner similar
	// to that of accessing objects": a G_policy threshold certificate
	// authorizes replacing ACL_O.
	f := newFixture(t)
	server := f.newServer(nil)
	policyAC, err := f.est.AA.IssueThreshold("G_policy", 3, f.subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	newEntries := []acl.Entry{{Group: "G_read", Perms: []acl.Permission{acl.Read}}}
	payload, err := json.Marshal(newEntries)
	if err != nil {
		t.Fatal(err)
	}
	req := AccessRequest{Threshold: policyAC}
	for _, u := range []string{"User_D1", "User_D2", "User_D3"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, f.clk.Now(), acl.Modify, "O", payload, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatalf("policy modification: %v", err)
	}
	// The write entry is gone: previously valid writes are now denied at
	// Step 4.
	wreq := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	if _, err := server.Authorize(context.Background(), wreq); !errors.Is(err, ErrDenied) {
		t.Fatalf("write after ACL tightening: %v", err)
	}
}

func TestFreshnessWindow(t *testing.T) {
	f := newFixture(t)
	server := f.newServerFreshness(nil, 10)
	req := AccessRequest{Threshold: f.writeAC}
	for _, u := range []string{"User_D1", "User_D2"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		// Stale timestamp, 50 ticks in the past.
		r, err := SignRequest(u, f.clk.Now()-50, acl.Write, "O", []byte("x"), f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	_, err := server.Authorize(context.Background(), req)
	if !errors.Is(err, ErrDenied) || !strings.Contains(err.Error(), "freshness") {
		t.Fatalf("stale request accepted: %v", err)
	}
}

func TestAuditTrail(t *testing.T) {
	f := newFixture(t)
	log := audit.NewLog()
	server := f.newServer(log)
	req := f.writeRequest(t, []byte("audited"), "User_D1", "User_D2")
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	bad := f.writeRequest(t, []byte("x"), "User_D1")
	_, _ = server.Authorize(context.Background(), bad)

	if got := len(log.ByOutcome(audit.Approved)); got != 1 {
		t.Errorf("approved entries = %d", got)
	}
	if got := len(log.ByOutcome(audit.Denied)); got != 1 {
		t.Errorf("denied entries = %d", got)
	}
	entries := log.Entries()
	if entries[0].ProofTrace == "" {
		t.Error("approval lacks a proof trace")
	}
	if !strings.Contains(log.Render(), "APPROVED") {
		t.Error("render lacks outcome")
	}
}

func TestEmptyRequestDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	if _, err := server.Authorize(context.Background(), AccessRequest{Threshold: f.writeAC}); !errors.Is(err, ErrDenied) {
		t.Fatalf("empty request: %v", err)
	}
}

func TestUnknownObjectDenied(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := AccessRequest{Threshold: f.writeAC}
	for _, u := range []string{"User_D1", "User_D2"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, f.clk.Now(), acl.Write, "Ghost", []byte("x"), f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("unknown object: %v", err)
	}
}
