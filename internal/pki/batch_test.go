package pki

import (
	"fmt"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
)

// batchCA issues n identity certificates under one fresh CA key.
func batchCA(t *testing.T, n int) (sharedrsa.PublicKey, []Signed[Identity]) {
	t.Helper()
	ca, err := GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatalf("ca keygen: %v", err)
	}
	scs := make([]Signed[Identity], n)
	for i := range scs {
		ukp, err := GenerateKeyPair(512, nil)
		if err != nil {
			t.Fatalf("user keygen: %v", err)
		}
		ki := NewKeyInfo(ukp.Public())
		scs[i], err = Issue(Identity{
			Issuer: "CA-D1", IssuedAt: 100,
			Subject: fmt.Sprintf("user-%d", i), SubjectKey: ki,
			KeyID: ukp.Public().KeyID(), NotBefore: 100, NotAfter: 10_000,
		}, ca.AsSigner())
		if err != nil {
			t.Fatalf("issue identity %d: %v", i, err)
		}
	}
	return ca.Public(), scs
}

// errString renders an error for parity comparison; nil-safe.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestVerifyIdentityBatchParity checks that the batched verifier agrees
// with Verify item by item — same accept/reject and same error
// text — across good, tampered, wrong-key and expired certificates.
func TestVerifyIdentityBatchParity(t *testing.T) {
	caKey, scs := batchCA(t, 6)
	otherKey, others := batchCA(t, 1)
	_ = otherKey

	scs[1].SigS = "deadbeef" + scs[1].SigS[8:] // tampered signature
	scs[2] = others[0]                         // signed by a different CA
	scs[3].SigS = "zz-not-hex"                 // malformed encoding
	scs[4].Cert.NotAfter = 150                 // expires before `at`

	at := clock.Time(5_000)
	res, errs := VerifyIdentityBatch(scs, caKey, at, sharedrsa.BatchOptions{})
	if !res.Fallback {
		t.Fatalf("batch with bad items should have fallen back: %+v", res)
	}
	for i, sc := range scs {
		want := Verify(sc, caKey, at)
		if errString(errs[i]) != errString(want) {
			t.Errorf("index %d: batch says %q, Verify says %q", i, errString(errs[i]), errString(want))
		}
	}
}

func TestVerifyIdentityBatchAllGood(t *testing.T) {
	caKey, scs := batchCA(t, 4)
	res, errs := VerifyIdentityBatch(scs, caKey, 5_000, sharedrsa.BatchOptions{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("index %d: %v", i, err)
		}
	}
	if !res.Batched || res.Fallback {
		t.Fatalf("clean batch should be decided by the product check alone: %+v", res)
	}
}
