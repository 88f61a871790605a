package pki

import (
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// testKeys caches key pairs (RSA generation is the slow part).
var testCA, testUser *KeyPair

func keys(t *testing.T) (ca, user *KeyPair) {
	t.Helper()
	if testCA == nil {
		var err error
		testCA, err = GenerateKeyPair(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		testUser, err = GenerateKeyPair(512, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return testCA, testUser
}

func identityBody(ca, user *KeyPair) Identity {
	return Identity{
		Issuer:     "CA1",
		IssuedAt:   90,
		Subject:    "User_D1",
		SubjectKey: NewKeyInfo(user.Public()),
		KeyID:      user.KeyID(),
		NotBefore:  50,
		NotAfter:   5000,
	}
}

func TestIdentityIssueVerify(t *testing.T) {
	ca, user := keys(t)
	sc, err := IssueIdentity(identityBody(ca, user), ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIdentity(sc, ca.Public(), 100); err != nil {
		t.Fatal(err)
	}
	// Expired and premature.
	if err := VerifyIdentity(sc, ca.Public(), 5001); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
	if err := VerifyIdentity(sc, ca.Public(), 49); !errors.Is(err, ErrExpired) {
		t.Errorf("premature: %v", err)
	}
	// Wrong verification key.
	if err := VerifyIdentity(sc, user.Public(), 100); !errors.Is(err, ErrBadCertSignature) {
		t.Errorf("wrong key: %v", err)
	}
}

func TestIdentityTamperDetected(t *testing.T) {
	ca, user := keys(t)
	sc, err := IssueIdentity(identityBody(ca, user), ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	sc.Cert.Subject = "Mallory"
	if err := VerifyIdentity(sc, ca.Public(), 100); !errors.Is(err, ErrBadCertSignature) {
		t.Errorf("tampered subject accepted: %v", err)
	}
}

func TestIdentityValidation(t *testing.T) {
	ca, user := keys(t)
	bad := identityBody(ca, user)
	bad.Subject = ""
	if _, err := IssueIdentity(bad, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty subject: %v", err)
	}
	rev := identityBody(ca, user)
	rev.NotBefore, rev.NotAfter = 10, 5
	if _, err := IssueIdentity(rev, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
		t.Errorf("reversed validity: %v", err)
	}
	// A body binding the subject to one key while naming another's ID.
	misnamed := identityBody(ca, user)
	misnamed.KeyID = ca.KeyID()
	if _, err := IssueIdentity(misnamed, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
		t.Errorf("key ID of another key: %v", err)
	}
}

func TestAttributeIssueVerify(t *testing.T) {
	ca, user := keys(t)
	body := Attribute{
		Issuer:    "AA",
		IssuedAt:  95,
		Group:     "G_read",
		Subject:   BoundSubject{Name: "User_D1", KeyID: user.KeyID()},
		NotBefore: 50,
		NotAfter:  5000,
	}
	sc, err := IssueAttribute(body, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttribute(sc, ca.Public(), 100); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttribute(sc, ca.Public(), 9999); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
	if _, err := IssueAttribute(Attribute{Issuer: "AA"}, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
		t.Errorf("missing fields: %v", err)
	}
}

func thresholdBody(user *KeyPair) ThresholdAttribute {
	return ThresholdAttribute{
		Issuer:   "AA",
		IssuedAt: 95,
		Group:    "G_write",
		M:        2,
		Subjects: []BoundSubject{
			{Name: "User_D1", KeyID: user.KeyID()},
			{Name: "User_D2", KeyID: "k2"},
			{Name: "User_D3", KeyID: "k3"},
		},
		NotBefore: 50,
		NotAfter:  5000,
	}
}

func TestThresholdAttributeJointlySigned(t *testing.T) {
	_, user := keys(t)
	// The AA key is a dealer-split shared key (fast path); signing runs
	// the joint protocol over all shares.
	res, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	joint := NewJointSigner(res.Public, res.Shares)
	sc, err := IssueThresholdAttribute(thresholdBody(user), joint)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyThresholdAttribute(sc, res.Public, 100); err != nil {
		t.Fatal(err)
	}
	// Tampering with the threshold is detected.
	sc.Cert.M = 1
	if err := VerifyThresholdAttribute(sc, res.Public, 100); !errors.Is(err, ErrBadCertSignature) {
		t.Errorf("tampered threshold accepted: %v", err)
	}
}

func TestThresholdAttributeValidation(t *testing.T) {
	ca, user := keys(t)
	cases := []struct {
		name string
		mut  func(*ThresholdAttribute)
	}{
		{"m too large", func(b *ThresholdAttribute) { b.M = 4 }},
		{"m zero", func(b *ThresholdAttribute) { b.M = 0 }},
		{"no subjects", func(b *ThresholdAttribute) { b.Subjects = nil }},
		{"unbound subject", func(b *ThresholdAttribute) { b.Subjects[1].KeyID = "" }},
		{"duplicate subject", func(b *ThresholdAttribute) { b.Subjects[1].Name = "User_D1" }},
		{"no group", func(b *ThresholdAttribute) { b.Group = "" }},
		{"reversed validity", func(b *ThresholdAttribute) { b.NotBefore, b.NotAfter = 9, 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := thresholdBody(user)
			tc.mut(&body)
			if _, err := IssueThresholdAttribute(body, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
				t.Errorf("err = %v", err)
			}
		})
	}
}

// TestValidityBoundaries pins the closed ends of a validity window: every
// Verify* with a window accepts at exactly NotBefore and at exactly
// NotAfter and refuses one tick outside either end, and issuance accepts
// a window of one instant.
func TestValidityBoundaries(t *testing.T) {
	ca, user := keys(t)
	signer, subject := ca.AsSigner(), BoundSubject{Name: "User_D1", KeyID: user.KeyID()}
	for _, w := range []struct{ nb, na clock.Time }{{50, 5000}, {50, 50}} {
		id, th := identityBody(ca, user), thresholdBody(user)
		id.NotBefore, id.NotAfter = w.nb, w.na
		th.NotBefore, th.NotAfter = w.nb, w.na
		idc, err1 := IssueIdentity(id, signer)
		atc, err2 := IssueAttribute(Attribute{Issuer: "AA", Group: "G_read", Subject: subject, NotBefore: w.nb, NotAfter: w.na}, signer)
		thc, err3 := IssueThresholdAttribute(th, signer)
		glc, err4 := IssueGroupLink(GroupLink{Issuer: "AA", Sub: "G_sub", Sup: "G_write", NotBefore: w.nb, NotAfter: w.na}, signer)
		dlc, err5 := IssueDelegation(Delegation{Issuer: "AA", Subject: subject, Group: "G_read", Perms: "*", Depth: 1,
			NotBefore: w.nb, NotAfter: w.na}, signer)
		ggc, err6 := IssueGroupGraphLink(GroupGraphLink{Issuer: "AA", Sub: "G_sub", Sup: "G_write", Depth: 1,
			NotBefore: w.nb, NotAfter: w.na}, signer)
		if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
			t.Fatalf("issue with validity [%d, %d]: %v", w.nb, w.na, err)
		}
		for _, c := range []struct {
			name   string
			verify func(clock.Time) error
		}{
			{"identity", func(at clock.Time) error { return VerifyIdentity(idc, ca.Public(), at) }},
			{"attribute", func(at clock.Time) error { return VerifyAttribute(atc, ca.Public(), at) }},
			{"threshold attribute", func(at clock.Time) error { return VerifyThresholdAttribute(thc, ca.Public(), at) }},
			{"group link", func(at clock.Time) error { return VerifyGroupLink(glc, ca.Public(), at) }},
			{"delegation", func(at clock.Time) error { return VerifyDelegation(dlc, ca.Public(), at) }},
			{"group-graph link", func(at clock.Time) error { return VerifyGroupGraphLink(ggc, ca.Public(), at) }},
		} {
			for at, ok := range map[clock.Time]bool{w.nb - 1: false, w.nb: true, w.na: true, w.na + 1: false} {
				if err := c.verify(at); ok && err != nil || !ok && !errors.Is(err, ErrExpired) {
					t.Errorf("%s valid [%d, %d] at %d: err = %v", c.name, w.nb, w.na, at, err)
				}
			}
		}
	}
}

func TestThresholdSignerQuorum(t *testing.T) {
	_, user := keys(t)
	res, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sharedrsa.Reshare(res.Public, res.Shares, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-party quorum signs successfully.
	signer := NewThresholdSigner(ts, []int{1, 3})
	sc, err := IssueThresholdAttribute(thresholdBody(user), signer)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyThresholdAttribute(sc, res.Public, 100); err != nil {
		t.Fatal(err)
	}
	// A 1-party quorum cannot.
	starved := NewThresholdSigner(ts, []int{2})
	if _, err := IssueThresholdAttribute(thresholdBody(user), starved); err == nil {
		t.Fatal("below-quorum signer issued a certificate")
	}
}

func TestRevocationIssueVerify(t *testing.T) {
	ca, user := keys(t)
	body := Revocation{
		Issuer:      "RA",
		IssuedAt:    200,
		Group:       "G_write",
		M:           2,
		Subjects:    thresholdBody(user).Subjects,
		EffectiveAt: 200,
	}
	sc, err := IssueRevocation(body, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRevocation(sc, ca.Public()); err != nil {
		t.Fatal(err)
	}
	sc.Cert.Group = "G_read"
	if err := VerifyRevocation(sc, ca.Public()); !errors.Is(err, ErrBadCertSignature) {
		t.Errorf("tampered revocation accepted: %v", err)
	}
	if _, err := IssueRevocation(Revocation{Issuer: "RA"}, ca.AsSigner()); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty revocation: %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	ca, user := keys(t)
	sc, err := IssueIdentity(identityBody(ca, user), ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal[Identity](b)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIdentity(back, ca.Public(), 100); err != nil {
		t.Fatalf("round-tripped certificate invalid: %v", err)
	}
	if _, err := Unmarshal[Identity]([]byte("{broken")); !errors.Is(err, ErrMalformed) {
		t.Errorf("broken json: %v", err)
	}
}

func TestKeyInfoRoundTrip(t *testing.T) {
	ca, _ := keys(t)
	ki := NewKeyInfo(ca.Public())
	pk, err := ki.PublicKey()
	if err != nil {
		t.Fatal(err)
	}
	if pk.KeyID() != ca.Public().KeyID() {
		t.Error("key info round trip changed the key")
	}
	for _, bad := range []KeyInfo{
		{N: "zz", E: "3"},           // bad hex
		{N: "0", E: "10001"},        // zero modulus
		{N: "1", E: "10001"},        // below 3
		{N: "-c5", E: "10001"},      // negative
		{N: "c4", E: "10001"},       // even
		{N: "c5", E: "1"},           // exponent below 3
		{N: "c5", E: "-10001"},      // negative exponent
		{N: ki.N, E: "0"},           // zero exponent
		{N: ki.N + "0", E: ki.E},    // ×16: even
		{N: "", E: ki.E},            // empty
		{N: "0x" + ki.N, E: ki.E},   // prefixed
		{N: ki.N, E: "1_0001"},      // underscore
		{N: "+" + ki.N, E: "+0002"}, // exponent 2
	} {
		if _, err := bad.PublicKey(); !errors.Is(err, ErrMalformed) {
			t.Errorf("KeyInfo{N: %.12q, E: %q}: %v, want ErrMalformed", bad.N, bad.E, err)
		}
	}
	if _, err := (KeyInfo{N: "+3", E: "3"}).PublicKey(); err != nil {
		t.Errorf("smallest accepted key: %v", err)
	}
}

func TestIdealizeIdentityForm(t *testing.T) {
	ca, user := keys(t)
	sc, err := IssueIdentity(identityBody(ca, user), ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	ideal := IdealizeIdentity(sc)
	if string(ideal.K) != ca.KeyID() {
		t.Errorf("idealized signature key = %s, want CA key", ideal.K)
	}
	s := ideal.String()
	for _, frag := range []string{"CA1 says_t90", "⇒_[t50,t5000],CA1 User_D1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("idealization %q missing %q", s, frag)
		}
	}
}

func TestIdealizeThresholdForm(t *testing.T) {
	ca, user := keys(t)
	sc, err := IssueThresholdAttribute(thresholdBody(user), ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	ideal := IdealizeThresholdAttribute(sc)
	s := ideal.String()
	for _, frag := range []string{"AA says_t95", "(2,3)", "Group(G_write)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("idealization %q missing %q", s, frag)
		}
	}
}

func TestIdealizeRevocationForm(t *testing.T) {
	ca, user := keys(t)
	body := Revocation{
		Issuer: "RA", IssuedAt: 200, Group: "G_write", M: 2,
		Subjects: thresholdBody(user).Subjects, EffectiveAt: 201,
	}
	sc, err := IssueRevocation(body, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	ideal := IdealizeRevocation(sc)
	if !strings.Contains(ideal.String(), "¬") {
		t.Errorf("revocation idealization lacks negation: %s", ideal)
	}
}

func TestCompoundOf(t *testing.T) {
	cp := CompoundOf([]BoundSubject{{Name: "B", KeyID: "kb"}, {Name: "A", KeyID: "ka"}}, 2)
	if cp.Threshold() != 2 || len(cp.Members()) != 2 {
		t.Errorf("cp = %s", cp)
	}
	k, ok := cp.MemberKey("A")
	if !ok || k != logic.KeyID("ka") {
		t.Errorf("MemberKey(A) = %v, %v", k, ok)
	}
	// m = 0 yields a plain compound principal.
	plain := CompoundOf([]BoundSubject{{Name: "A", KeyID: "ka"}}, 0)
	if plain.IsThreshold() {
		t.Error("m=0 should not be threshold")
	}
}
