package pki

import (
	"bytes"
	"encoding/json"
	"testing"
)

// crlFixture builds a verified CRL, its JSON encoding and the key it
// verifies under. testing.TB so both tests and fuzz seeding can use it.
func crlFixture(tb testing.TB) (Signed[CRL], []byte, *KeyPair) {
	tb.Helper()
	ca, err := GenerateKeyPair(512, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rev, err := Issue(Revocation{
		Issuer: "RA", IssuedAt: 100, Group: "G_write", M: 2,
		Subjects:    []BoundSubject{{Name: "u1", KeyID: "k1"}, {Name: "u2", KeyID: "k2"}},
		EffectiveAt: 100,
	}, ca.AsSigner())
	if err != nil {
		tb.Fatal(err)
	}
	crl, err := Issue(CRL{Issuer: "RA", IssuedAt: 150, Seq: 1, Entries: []Signed[Revocation]{rev}}, ca.AsSigner())
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(crl)
	if err != nil {
		tb.Fatal(err)
	}
	return crl, b, ca
}

// FuzzCRLUnmarshal: whatever an encoded CRL is mutated into, Verify
// never panics on the decoded result, and accepts it only when the
// signed form is byte-identical to the issued CRL's — no input alters
// what the CRL says and still verifies.
func FuzzCRLUnmarshal(f *testing.F) {
	crl, valid, ca := crlFixture(f)
	orig := appendSigned(nil, crl.Cert)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add([]byte("{nope"))
	f.Add([]byte(nil))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Signed[CRL]
		if json.Unmarshal(data, &sc) != nil || Verify(sc, ca.Public(), 150) != nil {
			return
		}
		if !bytes.Equal(appendSigned(nil, sc.Cert), orig) {
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
		var sc Signed[CRL]
		if json.Unmarshal(valid[:n], &sc) == nil && Verify(sc, ca.Public(), 150) == nil {
			t.Fatalf("truncation to %d/%d bytes verifies", n, len(valid))
		}
	}
}

// TestCRLBitFlipProperty: for every single-bit flip of a marshaled CRL,
// either parsing fails, or signature verification fails, or the flip was
// value-preserving (e.g. hex case in the signature) — in which case the
// signed form must be byte-identical to the original. No flip may
// alter what the CRL says and still verify.
func TestCRLBitFlipProperty(t *testing.T) {
	crl, valid, ca := crlFixture(t)
	origSigned := appendSigned(nil, crl.Cert)
	survivors := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(valid)
			mut[i] ^= 1 << bit
			var sc Signed[CRL]
			if err := json.Unmarshal(mut, &sc); err != nil {
				continue // detected at parse
			}
			if err := Verify(sc, ca.Public(), 150); err != nil {
				continue // detected at verification
			}
			if !bytes.Equal(appendSigned(nil, sc.Cert), origSigned) {
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
