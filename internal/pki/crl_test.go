package pki

import (
	"errors"
	"testing"
)

func sampleRevocation(t *testing.T, ca *KeyPair, group string) Signed[Revocation] {
	t.Helper()
	body := Revocation{
		Issuer: "RA", IssuedAt: 100, Group: group, M: 2,
		Subjects:    []BoundSubject{{Name: "u1", KeyID: "k1"}, {Name: "u2", KeyID: "k2"}},
		EffectiveAt: 100,
	}
	sc, err := IssueRevocation(body, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestCRLIssueVerifyRoundTrip(t *testing.T) {
	ca, _ := keys(t)
	entries := []Signed[Revocation]{
		sampleRevocation(t, ca, "G_write"),
		sampleRevocation(t, ca, "G_read"),
	}
	crl, err := IssueCRL("RA", 1, 150, entries, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCRL(crl, ca.Public()); err != nil {
		t.Fatal(err)
	}
	if len(crl.CRL.Entries) != 2 {
		t.Errorf("entries = %d", len(crl.CRL.Entries))
	}
}

func TestCRLTamperDetected(t *testing.T) {
	ca, _ := keys(t)
	crl, err := IssueCRL("RA", 1, 150, []Signed[Revocation]{sampleRevocation(t, ca, "G_write")}, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	// Dropping an entry (hiding a revocation!) must be detected.
	crl.CRL.Entries = nil
	if err := VerifyCRL(crl, ca.Public()); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("entry suppression undetected: %v", err)
	}
}

func TestCRLWrongIssuerKey(t *testing.T) {
	ca, user := keys(t)
	crl, err := IssueCRL("RA", 1, 150, nil, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCRL(crl, user.Public()); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestRevocationRegistrySequencing(t *testing.T) {
	ca, _ := keys(t)
	reg := NewRevocationRegistry("RA", ca.AsSigner())
	reg.Add(sampleRevocation(t, ca, "G_b"))
	reg.Add(sampleRevocation(t, ca, "G_a"))
	crl1, err := reg.Publish(200)
	if err != nil {
		t.Fatal(err)
	}
	if crl1.CRL.Seq != 1 || len(crl1.CRL.Entries) != 2 {
		t.Errorf("crl1 = seq %d, %d entries", crl1.CRL.Seq, len(crl1.CRL.Entries))
	}
	// Entries sorted by group for deterministic payloads.
	if crl1.CRL.Entries[0].Cert.Group != "G_a" {
		t.Errorf("entries not sorted: %s first", crl1.CRL.Entries[0].Cert.Group)
	}
	reg.Add(sampleRevocation(t, ca, "G_c"))
	crl2, err := reg.Publish(300)
	if err != nil {
		t.Fatal(err)
	}
	if crl2.CRL.Seq != 2 || len(crl2.CRL.Entries) != 3 {
		t.Errorf("crl2 = seq %d, %d entries", crl2.CRL.Seq, len(crl2.CRL.Entries))
	}
	if err := VerifyCRL(crl2, ca.Public()); err != nil {
		t.Fatal(err)
	}
}
