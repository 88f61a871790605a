package pki

import (
	"bytes"
	"errors"
	"testing"
)

// delegationFixture builds a signed, marshaled delegation-link certificate
// and the key it verifies under, mirroring crlFixture.
func delegationFixture(tb testing.TB) (Signed[Delegation], []byte, *KeyPair) {
	tb.Helper()
	aa, err := GenerateKeyPair(512, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := Issue(Delegation{
		Issuer: "AA", IssuedAt: 100, Delegator: "alice",
		Subject: BoundSubject{Name: "bob", KeyID: "kb"},
		Group:   "G_write", Depth: 2, Perms: "read,write",
		NotBefore: 100, NotAfter: 500,
	}, aa.AsSigner())
	if err != nil {
		tb.Fatal(err)
	}
	b, err := Marshal(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return sc, b, aa
}

// FuzzDelegationUnmarshal: Unmarshal[Delegation] must never panic, and
// anything it accepts must re-marshal to a stable fixed point.
func FuzzDelegationUnmarshal(f *testing.F) {
	_, valid, _ := delegationFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add([]byte("{nope"))
	f.Add([]byte(nil))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Unmarshal[Delegation](data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("parse failure outside the malformed class: %v", err)
			}
			return
		}
		m1, err := Marshal(sc)
		if err != nil {
			t.Fatalf("accepted delegation does not re-marshal: %v", err)
		}
		sc2, err := Unmarshal[Delegation](m1)
		if err != nil {
			t.Fatalf("own marshaling rejected: %v", err)
		}
		m2, err := Marshal(sc2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", m1, m2)
		}
	})
}

// TestDelegationTruncationProperty: every proper prefix of a marshaled
// delegation certificate is rejected as malformed — a cut-off chain link
// can never parse as a shorter valid one (which could silently widen a
// permission set or drop the delegator).
func TestDelegationTruncationProperty(t *testing.T) {
	_, valid, _ := delegationFixture(t)
	for n := 0; n < len(valid); n++ {
		if _, err := Unmarshal[Delegation](valid[:n]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncation to %d/%d bytes accepted (err=%v)", n, len(valid), err)
		}
	}
}

// TestDelegationBitFlipProperty: for every single-bit flip of a marshaled
// delegation certificate, either parsing fails, or signature verification
// fails, or the flip was value-preserving — in which case the signed
// form must be byte-identical to the original. No flip may deepen,
// widen, or re-target a delegation and still verify.
func TestDelegationBitFlipProperty(t *testing.T) {
	sc0, valid, aa := delegationFixture(t)
	origSigned := appendSigned(nil, sc0.Cert)
	survivors := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(valid)
			mut[i] ^= 1 << bit
			sc, err := Unmarshal[Delegation](mut)
			if err != nil {
				continue // detected at parse
			}
			if err := Verify(sc, aa.Public(), 200); err != nil {
				continue // detected at verification
			}
			if !bytes.Equal(appendSigned(nil, sc.Cert), origSigned) {
				t.Fatalf("bit %d of byte %d (%q) altered the delegation and still verifies", bit, i, valid[i])
			}
			survivors++
		}
	}
	t.Logf("value-preserving flips: %d of %d", survivors, len(valid)*8)
}
