package authz

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// singleReadRequest builds an A35-path request: one key-bound subject with
// a single-subject attribute certificate.
func (f *fixture) singleReadRequest(t testing.TB, user string) AccessRequest {
	t.Helper()
	cert, err := f.est.AA.IssueAttribute("G_read",
		pki.BoundSubject{Name: user, KeyID: f.users[user].KeyID()},
		clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	req := AccessRequest{SingleSubject: true, Single: cert}
	req.Identities = append(req.Identities, f.idCerts[user])
	r, err := SignRequest(user, f.clk.Now(), acl.Read, "O", nil, f.users[user])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	return req
}

func TestSingleSubjectAttributeRead(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	dec, err := server.Authorize(context.Background(), f.singleReadRequest(t, "User_D3"))
	if err != nil {
		t.Fatalf("A35 read: %v", err)
	}
	if string(dec.Data) != "genome v1" {
		t.Errorf("data = %q", dec.Data)
	}
	// The derivation must use A35 (selective distribution), not A38.
	trace := dec.Proof.String()
	if !strings.Contains(trace, "A35") {
		t.Errorf("trace lacks A35:\n%s", trace)
	}
}

func TestSingleSubjectWrongSigner(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	// Certificate names User_D3; User_D1 signs the request.
	req := f.singleReadRequest(t, "User_D3")
	req.Identities = []pki.Signed[pki.Identity]{f.idCerts["User_D1"]}
	r, err := SignRequest("User_D1", f.clk.Now(), acl.Read, "O", nil, f.users["User_D1"])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = []UserRequest{r}
	if _, err := server.Authorize(context.Background(), req); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-subject signer accepted on A35 path: %v", err)
	}
}

func TestSingleSubjectRevocation(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	req := f.singleReadRequest(t, "User_D3")
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Revoke the single-subject membership (M = 0 in the revocation body
	// denotes a non-threshold certificate).
	rev, err := pkiRevokeSingle(f, req.Single)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	f.clk.Tick()
	req2 := f.singleReadRequest(t, "User_D3")
	if _, err := server.Authorize(context.Background(), req2); !errors.Is(err, ErrDenied) {
		t.Fatalf("A35 read after revocation: %v", err)
	}
}

// pkiRevokeSingle builds an RA revocation for a single-subject attribute
// certificate (the RA type's Revoke takes threshold certificates; the
// revocation body is the same shape with M = 0).
func pkiRevokeSingle(f *fixture, cert pki.Signed[pki.Attribute]) (pki.Signed[pki.Revocation], error) {
	asThreshold := pki.Signed[pki.ThresholdAttribute]{
		Cert: pki.ThresholdAttribute{
			Issuer:    cert.Cert.Issuer,
			IssuedAt:  cert.Cert.IssuedAt,
			Group:     cert.Cert.Group,
			M:         0,
			Subjects:  []pki.BoundSubject{cert.Cert.Subject},
			NotBefore: cert.Cert.NotBefore,
			NotAfter:  cert.Cert.NotAfter,
		},
	}
	return f.ra.Revoke(asThreshold, f.clk.Now())
}
