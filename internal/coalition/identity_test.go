package coalition

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// certBytes is an identity certificate's wire form.
func certBytes(t *testing.T, idc pki.Signed[pki.Identity]) []byte {
	t.Helper()
	b, err := json.Marshal(idc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requestValidity is what a request builder asks for at now: the span
// Alliance.NewRequest asks for, 1 001 ticks.
func requestValidity(now clock.Time) clock.Interval { return clock.NewInterval(now-1, now.Add(1000)) }

// identityAt advances the manual clock to at and returns alice's
// identity certificate as a request built then would carry it.
func identityAt(t *testing.T, c *Coalition, clk *clock.Clock, at clock.Time) pki.Signed[pki.Identity] {
	t.Helper()
	clk.AdvanceTo(at)
	idc, err := c.IdentityOf("alice", requestValidity(at))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(idc, caKey(t, c, "D1"), at); err != nil {
		t.Fatalf("identity at t%d: %v", at, err)
	}
	return idc
}

func caKey(t *testing.T, c *Coalition, domain string) sharedrsa.PublicKey {
	t.Helper()
	m, ok := c.member(domain)
	if !ok {
		t.Fatalf("no domain %s", domain)
	}
	return m.CA.Public()
}

// TestIdentityOfHoldsCertificate: the domain hands out the certificate it
// issued at enrolment, byte for byte, until less than half of a request's
// span remains on it; then it issues one over the request's validity and
// holds that.
func TestIdentityOfHoldsCertificate(t *testing.T) {
	c, clk := formCoalition(t)
	enrolled, err := c.AddUser("D1", "alice", requestValidity(clk.Now())) // [99, 1100]
	if err != nil {
		t.Fatal(err)
	}
	first := identityAt(t, c, clk, 100)
	second := identityAt(t, c, clk, 101)
	if !bytes.Equal(certBytes(t, first), certBytes(t, enrolled)) || !bytes.Equal(certBytes(t, second), certBytes(t, first)) {
		t.Fatal("IdentityOf did not return the certificate issued at enrolment")
	}
	// At t599, 501 of a 1 001-tick span remain: at least half, held.
	if held := identityAt(t, c, clk, 599); !bytes.Equal(certBytes(t, held), certBytes(t, enrolled)) {
		t.Errorf("re-issued at t599 with %d ticks left", enrolled.Cert.NotAfter-599)
	}
	// At t600, 500 remain: less than half, re-issued over the request's
	// validity — and that one is held from then on.
	renewed := identityAt(t, c, clk, 600)
	if bytes.Equal(certBytes(t, renewed), certBytes(t, enrolled)) {
		t.Fatal("not re-issued at t600 with 500 of 1 001 ticks left")
	}
	if renewed.Cert.NotBefore != 599 || renewed.Cert.NotAfter != 1600 || renewed.Cert.KeyID != enrolled.Cert.KeyID {
		t.Errorf("re-issued certificate %+v, want [t599, t1600] over key %s", renewed.Cert, enrolled.Cert.KeyID)
	}
	if again := identityAt(t, c, clk, 700); !bytes.Equal(certBytes(t, again), certBytes(t, renewed)) {
		t.Error("the re-issued certificate is not held")
	}
}

// TestIdentityOfAfterRevocationAndReenrolment: revoking a user's identity
// drops the held certificate, so the next request carries a new one;
// enrolling the user again (a new key) replaces it with one naming the
// new key.
func TestIdentityOfAfterRevocationAndReenrolment(t *testing.T) {
	c, clk := formCoalition(t)
	if _, err := c.AddUser("D1", "alice", requestValidity(clk.Now())); err != nil {
		t.Fatal(err)
	}
	held := identityAt(t, c, clk, 101)
	if _, err := c.RevokeUserIdentity("alice"); err != nil {
		t.Fatal(err)
	}
	after := identityAt(t, c, clk, 102)
	if bytes.Equal(certBytes(t, after), certBytes(t, held)) {
		t.Fatal("the held certificate outlived the identity revocation")
	}
	if after.Cert.IssuedAt != 102 || after.Cert.KeyID != held.Cert.KeyID {
		t.Errorf("after revocation: issued at %s over key %s, want t102 over %s", after.Cert.IssuedAt, after.Cert.KeyID, held.Cert.KeyID)
	}
	if again := identityAt(t, c, clk, 103); !bytes.Equal(certBytes(t, again), certBytes(t, after)) {
		t.Error("the certificate issued after the revocation is not held")
	}

	reenrolled, err := c.AddUser("D1", "alice", requestValidity(clk.Now()))
	if err != nil {
		t.Fatal(err)
	}
	kp, err := c.UserKey("alice")
	if err != nil {
		t.Fatal(err)
	}
	if kp.KeyID() == held.Cert.KeyID {
		t.Fatal("re-enrolment kept the old key")
	}
	got := identityAt(t, c, clk, 104)
	if got.Cert.KeyID != kp.KeyID() || !bytes.Equal(certBytes(t, got), certBytes(t, reenrolled)) {
		t.Errorf("after re-enrolment: certificate over key %s, want the enrolment's, over %s", got.Cert.KeyID, kp.KeyID())
	}
}

// TestIdentityOfAfterLeave: a departed domain's users are no longer
// enrolled anywhere, held certificate or not.
func TestIdentityOfAfterLeave(t *testing.T) {
	c, clk := formCoalition(t)
	users := enrollThree(t, c) // u1→D1, u2→D2, u3→D3
	for _, u := range users {
		if _, err := c.IdentityOf(u, requestValidity(clk.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Leave("D3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IdentityOf(users[2], requestValidity(clk.Now())); !errors.Is(err, errUnknownUser) {
		t.Errorf("IdentityOf(%s) after D3 left: %v, want errUnknownUser", users[2], err)
	}
	if _, err := c.IdentityOf(users[0], requestValidity(clk.Now())); err != nil {
		t.Errorf("IdentityOf(%s) after D3 left: %v", users[0], err)
	}
}
