package pki

import (
	"bytes"
	"encoding/json"
	"testing"
)

// crlFixture builds a verified CRL, its JSON encoding and the key it
// verifies under. testing.TB so both tests and fuzz seeding can use it.
func crlFixture(tb testing.TB) (SignedCRL, []byte, *KeyPair) {
	tb.Helper()
	ca, err := GenerateKeyPair(512, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rev, err := IssueRevocation(Revocation{
		Issuer: "RA", IssuedAt: 100, Group: "G_write", M: 2,
		Subjects:    []BoundSubject{{Name: "u1", KeyID: "k1"}, {Name: "u2", KeyID: "k2"}},
		EffectiveAt: 100,
	}, ca.AsSigner())
	if err != nil {
		tb.Fatal(err)
	}
	crl, err := IssueCRL("RA", 1, 150, []Signed[Revocation]{rev}, ca.AsSigner())
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(crl)
	if err != nil {
		tb.Fatal(err)
	}
	return crl, b, ca
}

// FuzzCRLUnmarshal: whatever an encoded CRL is mutated into, VerifyCRL
// never panics on the decoded result, and accepts it only when the
// signed payload is byte-identical to the issued CRL's — no input alters
// what the CRL says and still verifies.
func FuzzCRLUnmarshal(f *testing.F) {
	crl, valid, ca := crlFixture(f)
	orig, err := payload(tagCRL, crl.CRL)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add([]byte("{nope"))
	f.Add([]byte(nil))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc SignedCRL
		if json.Unmarshal(data, &sc) != nil || VerifyCRL(sc, ca.Public()) != nil {
			return
		}
		if p, err := payload(tagCRL, sc.CRL); err != nil || !bytes.Equal(p, orig) {
			t.Fatalf("altered CRL verifies:\n%s", data)
		}
	})
}

// TestCRLTruncationProperty: no proper prefix of an encoded CRL decodes
// to one that verifies — a cut-off CRL can never pass as a shorter valid
// one (which could silently hide revocation entries).
func TestCRLTruncationProperty(t *testing.T) {
	_, valid, ca := crlFixture(t)
	for n := 0; n < len(valid); n++ {
		var sc SignedCRL
		if json.Unmarshal(valid[:n], &sc) == nil && VerifyCRL(sc, ca.Public()) == nil {
			t.Fatalf("truncation to %d/%d bytes verifies", n, len(valid))
		}
	}
}

// TestCRLBitFlipProperty: for every single-bit flip of a marshaled CRL,
// either parsing fails, or signature verification fails, or the flip was
// value-preserving (e.g. hex case in the signature) — in which case the
// signed payload must be byte-identical to the original. No flip may
// alter what the CRL says and still verify.
func TestCRLBitFlipProperty(t *testing.T) {
	crl, valid, ca := crlFixture(t)
	origPayload, err := payload(tagCRL, crl.CRL)
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(valid)
			mut[i] ^= 1 << bit
			var sc SignedCRL
			if err := json.Unmarshal(mut, &sc); err != nil {
				continue // detected at parse
			}
			if err := VerifyCRL(sc, ca.Public()); err != nil {
				continue // detected at verification
			}
			p, err := payload(tagCRL, sc.CRL)
			if err != nil || !bytes.Equal(p, origPayload) {
				t.Fatalf("bit %d of byte %d (%q) altered the CRL and still verifies", bit, i, valid[i])
			}
			survivors++
		}
	}
	// Sanity: hex-case flips in the signature are value-preserving, so a
	// handful of survivors is expected; all-detected would mean the
	// equality arm above was never exercised.
	t.Logf("value-preserving flips: %d of %d", survivors, len(valid)*8)
}
