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
	sc, err := Issue(body, ca.AsSigner())
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
	crl, err := Issue(CRL{Issuer: "RA", IssuedAt: 150, Seq: 1, Entries: entries}, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(crl, ca.Public(), 150); err != nil {
		t.Fatal(err)
	}
	if len(crl.Cert.Entries) != 2 {
		t.Errorf("entries = %d", len(crl.Cert.Entries))
	}
}

func TestCRLTamperDetected(t *testing.T) {
	ca, _ := keys(t)
	crl, err := Issue(CRL{Issuer: "RA", IssuedAt: 150, Seq: 1, Entries: []Signed[Revocation]{sampleRevocation(t, ca, "G_write")}}, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	// Dropping an entry (hiding a revocation!) must be detected.
	crl.Cert.Entries = nil
	if err := Verify(crl, ca.Public(), 150); !errors.Is(err, errBadCertSignature) {
		t.Fatalf("entry suppression undetected: %v", err)
	}
}

func TestCRLWrongIssuerKey(t *testing.T) {
	ca, user := keys(t)
	crl, err := Issue(CRL{Issuer: "RA", IssuedAt: 150, Seq: 1}, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(crl, user.Public(), 150); !errors.Is(err, errBadCertSignature) {
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
	if crl1.Cert.Seq != 1 || len(crl1.Cert.Entries) != 2 {
		t.Errorf("crl1 = seq %d, %d entries", crl1.Cert.Seq, len(crl1.Cert.Entries))
	}
	// Entries sorted by group for deterministic payloads.
	if crl1.Cert.Entries[0].Cert.Group != "G_a" {
		t.Errorf("entries not sorted: %s first", crl1.Cert.Entries[0].Cert.Group)
	}
	reg.Add(sampleRevocation(t, ca, "G_c"))
	crl2, err := reg.Publish(300)
	if err != nil {
		t.Fatal(err)
	}
	if crl2.Cert.Seq != 2 || len(crl2.Cert.Entries) != 3 {
		t.Errorf("crl2 = seq %d, %d entries", crl2.Cert.Seq, len(crl2.Cert.Entries))
	}
	if err := Verify(crl2, ca.Public(), 150); err != nil {
		t.Fatal(err)
	}
}
