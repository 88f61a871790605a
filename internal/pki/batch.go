package pki

import (
	"fmt"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
)

// VerifyIdentityBatch verifies k identity certificates issued under one
// key with a single batched signature check (sharedrsa.BatchVerify) in
// place of k RSA verifications. The per-certificate error taxonomy of
// Verify is preserved: errs[i] is nil exactly when
// Verify(scs[i], issuerKey, at) would succeed, and wraps the
// same sentinel (errBadCertSignature, ErrMalformed, ErrExpired)
// otherwise — when the batch check fails, the per-item fallback inside
// BatchVerify attributes the culprit indices.
//
// The returned BatchResult reports whether the k-way product check ran
// and whether per-item fallback was needed, for the caller's metrics.
func VerifyIdentityBatch(scs []Signed[Identity], issuerKey sharedrsa.PublicKey, at clock.Time, opts sharedrsa.BatchOptions) (sharedrsa.BatchResult, []error) {
	errs := make([]error, len(scs))
	items := make([]sharedrsa.BatchItem, 0, len(scs))
	origin := make([]int, 0, len(scs))
	wantKey := issuerKey.KeyID()
	for i, sc := range scs {
		// Structural stage, mirroring Verify's check order: only
		// structurally sound signatures enter the batch.
		if sc.SignerKey != wantKey {
			errs[i] = fmt.Errorf("%w: signed by key %s, verifying with %s",
				errBadCertSignature, sc.SignerKey, wantKey)
			continue
		}
		s, ok := newIntFromHex(sc.SigS)
		if !ok {
			errs[i] = fmt.Errorf("%w: bad signature encoding", ErrMalformed)
			continue
		}
		items = append(items, sharedrsa.BatchItem{Msg: appendSigned(nil, sc.Cert), Sig: sharedrsa.Signature{S: s}})
		origin = append(origin, i)
	}

	res, err := sharedrsa.BatchVerify(items, issuerKey, opts)
	if err != nil {
		if be, ok := err.(*sharedrsa.BatchError); ok {
			for j, bi := range be.Bad {
				errs[origin[bi]] = fmt.Errorf("%w: %v", errBadCertSignature, be.Errs[j])
			}
		} else {
			// Not an attribution (e.g. randomness failure in blinded
			// mode): no signature was confirmed, fail the whole batch.
			for _, i := range origin {
				errs[i] = fmt.Errorf("%w: %v", errBadCertSignature, err)
			}
		}
	}

	// Validity windows are per-certificate, checked after the signature
	// as Verify does (a bad signature wins over expiry).
	for _, i := range origin {
		if errs[i] == nil {
			errs[i] = validAt(scs[i].Cert, at)
		}
	}
	return res, errs
}
