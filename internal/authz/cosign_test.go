package authz

import (
	"context"
	"encoding/hex"
	"errors"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// deciders names the two ways a server can decide a request: the residual
// decider every server serves, and the 4-step replay, its oracle.
var deciders = []struct {
	name     string
	residual bool
}{{"residual", true}, {"replay", false}}

// TestCollidingPayloadsDenied: two co-signers whose payloads differ but
// fold to the same digest, so that their idealized contents are equal,
// must not make a joint write — the server would store bytes one of them
// never signed. Each decider denies it cold (first sight of the
// certificates) and warm (certificates cached by an honest write first).
func TestCollidingPayloadsDenied(t *testing.T) {
	f := newFixture(t)
	p1, _ := hex.DecodeString("19f7640300000000")
	p2, _ := hex.DecodeString("0500000400000000")
	if fold(p1) != 0xe397b4cc || fold(p2) != 0xe397b4cc {
		t.Fatalf("fixture payloads fold to %08x and %08x, want both e397b4cc", fold(p1), fold(p2))
	}
	colliding := AccessRequest{Threshold: f.writeAC}
	for _, c := range []struct {
		user    string
		payload []byte
	}{{"User_D1", p1}, {"User_D2", p2}} {
		r, err := SignRequest(c.user, f.clk.Now(), acl.Write, "O", c.payload, f.users[c.user])
		if err != nil {
			t.Fatal(err)
		}
		colliding.Identities = append(colliding.Identities, f.idCerts[c.user])
		colliding.Requests = append(colliding.Requests, r)
	}
	honest := f.writeRequest(t, []byte("agreed"), "User_D1", "User_D2")

	for _, dc := range deciders {
		for _, arm := range []string{"cold", "warm"} {
			s := f.newServer(nil)
			s.SetResidualsEnabled(dc.residual)
			want := "genome v1"
			if arm == "warm" {
				if _, err := s.Authorize(context.Background(), honest); err != nil {
					t.Fatalf("%s/%s: honest write: %v", dc.name, arm, err)
				}
				want = "agreed"
			}
			dec, err := s.Authorize(context.Background(), colliding)
			if !errors.Is(err, ErrDenied) || dec.Allowed {
				t.Errorf("%s/%s: colliding payloads approved: %q, err=%v", dc.name, arm, dec.Reason, err)
			} else if dec.Reason != "co-signers disagree on the request" || dec.DeniedStep != StepCosign {
				t.Errorf("%s/%s: denied at %s with %q, want %s with %q", dc.name, arm,
					dec.DeniedStep, dec.Reason, StepCosign, "co-signers disagree on the request")
			}
			if got, _ := s.Objects().Read("O"); string(got) != want {
				t.Errorf("%s/%s: object holds %q, want %q", dc.name, arm, got, want)
			}
		}
	}
}

// TestNonSubjectCoSignerWording: a co-signer with a valid identity whose
// name the request's membership certificate does not bind is denied at
// Step 3, and the reason names the kind of certificate the request
// carries — threshold, single-subject or delegation — on both deciders,
// cold and warm.
func TestNonSubjectCoSignerWording(t *testing.T) {
	f := newFixture(t)
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.cas["CA1"].Register("Stranger", kp.Public())
	strangerID, err := f.cas["CA1"].IssueIdentity("Stranger", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// withStranger adds Stranger's identity and a component of the same
	// request, signed with Stranger's own key.
	withStranger := func(req AccessRequest) AccessRequest {
		first := req.Requests[0]
		r, err := SignRequest("Stranger", first.At, first.Op, first.Object, first.Payload, kp)
		if err != nil {
			t.Fatal(err)
		}
		req.Identities = append(req.Identities, strangerID)
		req.Requests = append(req.Requests, r)
		return req
	}
	root := f.issueDelegation(t, "", "User_D1", "G_read", 0, "read")

	cases := []struct {
		name string
		req  AccessRequest
		want string
	}{
		{"threshold", withStranger(f.writeRequest(t, []byte("x"), "User_D1")),
			"Stranger is not a subject of the threshold attribute certificate"},
		{"single", withStranger(f.singleReadRequest(t, "User_D3")),
			"Stranger is not a subject of the attribute certificate"},
		{"delegated", withStranger(f.delegatedReadRequest(t, "User_D1", root)),
			"Stranger is not a subject of the delegation certificate"},
	}
	for _, c := range cases {
		for _, dc := range deciders {
			s := f.newServer(nil)
			if err := s.Apply(context.Background(), Delegation{Cert: root}); err != nil {
				t.Fatal(err)
			}
			s.SetResidualsEnabled(dc.residual)
			for _, arm := range []string{"cold", "warm"} {
				dec, err := s.Authorize(context.Background(), c.req)
				if !errors.Is(err, ErrDenied) || dec.Reason != c.want || dec.DeniedStep != StepCosign {
					t.Errorf("%s/%s/%s: allowed=%v at %q: %q (err=%v), want denial at %s: %q",
						c.name, dc.name, arm, dec.Allowed, dec.DeniedStep, dec.Reason, err, StepCosign, c.want)
				}
			}
		}
	}
}
