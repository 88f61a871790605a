package authz

import (
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// TestZeroModulusIdentityDenied: a CA-signed identity certificate whose
// subject key has N = 0, bound by a threshold certificate to that key's
// ID, is denied at Step 1 by both deciders, cold and repeated. Accepted,
// the key would reach the Step-3 RSA check and divide by zero.
func TestZeroModulusIdentityDenied(t *testing.T) {
	f := newFixture(t)
	zero := sharedrsa.PublicKey{N: big.NewInt(0), E: big.NewInt(65537)}
	f.cas["CA1"].Register("Zero_D1", zero)
	idc, err := f.cas["CA1"].IssueIdentity("Zero_D1", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if idc.Cert.SubjectKey.N != "0" {
		t.Fatalf("certified modulus %q, want \"0\"", idc.Cert.SubjectKey.N)
	}
	ac, err := f.est.AA.IssueThreshold("G_read", 1,
		[]pki.BoundSubject{{Name: "Zero_D1", KeyID: zero.KeyID()}}, clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// The component's signature is beside the point: Step 1 must deny
	// before Step 3 looks at it.
	r, err := SignRequest("Zero_D1", f.clk.Now(), acl.Read, "O", nil, f.users["User_D1"])
	if err != nil {
		t.Fatal(err)
	}
	req := AccessRequest{Threshold: ac, Identities: []pki.Signed[pki.Identity]{idc}, Requests: []UserRequest{r}}

	for _, residuals := range []bool{true, false} {
		srv := f.newServer(nil)
		srv.SetResidualsEnabled(residuals)
		for i := 0; i < 2; i++ {
			dec, err := srv.Authorize(context.Background(), req)
			if !errors.Is(err, ErrDenied) || dec.DeniedStep != StepCerts ||
				!strings.HasPrefix(dec.Reason, "identity certificate key malformed: ") {
				t.Fatalf("residuals=%v try %d: step=%q reason=%q err=%v", residuals, i, dec.DeniedStep, dec.Reason, err)
			}
		}
	}
}

// TestSignatureParseDecisionsUnchanged pins what the signature parser
// means for a decision, on both deciders (a warm request on the residual
// path, then the full replay): hex SetString(s, 16) rejects is denied at
// Step 3 as "<user>: malformed signature"; a sign or upper case is the
// same value and approves.
func TestSignatureParseDecisionsUnchanged(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	ctx := context.Background()
	read := func() AccessRequest {
		return f.thresholdRequest(t, f.readAC, acl.Read, "O", nil, "User_D3")
	}
	for i := 0; i < 2; i++ { // cold, then warm: compiles G_read's residue
		if _, err := srv.Authorize(ctx, read()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		sig   func(string) string
		allow bool
	}{
		{"empty", func(string) string { return "" }, false},
		{"sign only", func(string) string { return "+" }, false},
		{"0x prefix", func(s string) string { return "0x" + s }, false},
		{"underscore", func(s string) string { return s[:1] + "_" + s[1:] }, false},
		{"non-hex", func(s string) string { return s[:len(s)-1] + "g" }, false},
		{"upper case", strings.ToUpper, true},
		{"plus sign and leading zeros", func(s string) string { return "+000" + s }, true},
	} {
		req := read()
		req.Requests[0].SigS = tc.sig(req.Requests[0].SigS)
		dec := requireResidualAgreesWithReplay(t, srv, reg, req)
		if tc.allow {
			if !dec.Allowed {
				t.Errorf("%s: denied at %s: %s", tc.name, dec.DeniedStep, dec.Reason)
			}
			continue
		}
		if dec.Allowed || dec.DeniedStep != StepCosign || dec.Reason != "User_D3: malformed signature" {
			t.Errorf("%s: allowed=%v step=%q reason=%q", tc.name, dec.Allowed, dec.DeniedStep, dec.Reason)
		}
	}
}

// TestIdentityKeyIDMustNameSubjectKey: a CA-signed identity certificate
// whose declared KeyID ("kX") is not the ID of its subject key, for a
// subject a threshold certificate binds to kX and who signs with the
// certified key, is denied at Step 1 by both deciders and both Step-1
// arms, cold and repeated. Trusted once cached, the declared ID would
// pass the residual decider's Step-3 binding check while the replay's
// check of the parsed key denied it.
func TestIdentityKeyIDMustNameSubjectKey(t *testing.T) {
	f := newFixture(t)
	ca, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	// pki.IssueIdentity refuses this body, so sign its payload directly.
	body := pki.Identity{Issuer: "CAX", IssuedAt: 60, Subject: "Mallory_D1",
		SubjectKey: pki.NewKeyInfo(user.Public()), KeyID: "kX", NotBefore: 50, NotAfter: 5000}
	if _, err := pki.IssueIdentity(body, ca.AsSigner()); !errors.Is(err, pki.ErrMalformed) {
		t.Fatalf("IssueIdentity accepted a key ID that names no subject key: %v", err)
	}
	payload, err := json.Marshal(struct {
		T    string       `json:"t"`
		Body pki.Identity `json:"body"`
	}{"identity", body})
	if err != nil {
		t.Fatal(err)
	}
	idc := pki.Signed[pki.Identity]{Cert: body, SignerKey: ca.KeyID(), SigS: ca.Sign(payload).S.Text(16)}
	if err := pki.VerifyIdentity(idc, ca.Public(), 100); err != nil {
		t.Fatalf("hand-signed identity does not verify: %v", err)
	}
	ac, err := f.est.AA.IssueThreshold("G_read", 1,
		[]pki.BoundSubject{{Name: "Mallory_D1", KeyID: "kX"}}, clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := SignRequest("Mallory_D1", f.clk.Now(), acl.Read, "O", nil, user)
	if err != nil {
		t.Fatal(err)
	}
	req := AccessRequest{Threshold: ac, Identities: []pki.Signed[pki.Identity]{idc}, Requests: []UserRequest{r}}

	anchors := f.anchors(0)
	anchors.CAKeys["CAX"] = ca.Public()
	for _, residuals := range []bool{true, false} {
		for _, batch := range []bool{false, true} {
			srv := NewServer("P", f.clk, anchors, f.newServer(nil).Objects(), nil)
			srv.SetResidualsEnabled(residuals)
			srv.SetBatchVerify(batch)
			for i := 0; i < 2; i++ {
				dec, err := srv.Authorize(context.Background(), req)
				if !errors.Is(err, ErrDenied) || dec.DeniedStep != StepCerts ||
					!strings.HasPrefix(dec.Reason, "identity certificate key malformed: ") {
					t.Fatalf("residuals=%v batch=%v try %d: allowed=%v step=%q reason=%q err=%v",
						residuals, batch, i, dec.Allowed, dec.DeniedStep, dec.Reason, err)
				}
			}
		}
	}
}
