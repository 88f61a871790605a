// Package pki implements the certificate machinery of the coalition
// architecture (Figure 1): identity certificates issued by per-domain CAs,
// attribute and threshold attribute certificates issued by the coalition
// Attribute Authority, and time-stamped revocation certificates. Every
// certificate has two faces kept in exact correspondence:
//
//   - a signed form — the kind-tagged, length-prefixed binary encoding
//     (fingerprint.go) that a real RSA-FDH signature covers (a
//     conventional key for CAs and users, the shared key of
//     internal/sharedrsa for the coalition AA), and
//   - an idealized form — the time-stamped logic message of Section 4.2
//     (e.g. ⟦CA says_tCA (K ⇒ [tb,te],CA P)⟧_KCA⁻¹) consumed by the
//     derivation engine of internal/logic.
package pki

import (
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"

	"jointadmin/internal/sharedrsa"
)

// KeyPair is a conventional (single-owner) RSA key pair used by users and
// domain CAs. Signing uses the same full-domain-hash scheme as the shared
// key so that all verification in the system is uniform. The private half
// is kept in CRT form only (sharedrsa.CRTKey): no full private exponent.
type KeyPair struct {
	key *sharedrsa.CRTKey
}

// GenerateKeyPair creates a conventional RSA key pair of the given size
// (sharedrsa.GenerateKey; rng nil means crypto/rand.Reader).
func GenerateKeyPair(bits int, rng io.Reader) (*KeyPair, error) {
	key, err := sharedrsa.GenerateKey(bits, rng)
	if err != nil {
		return nil, fmt.Errorf("pki: generate key: %w", err)
	}
	return NewKeyPair(key)
}

// NewKeyPair keeps the two primes and CRT values of an RSA key, and
// nothing else of its private half. A key with other than two primes, or
// without its CRT values, is refused.
func NewKeyPair(key *rsa.PrivateKey) (*KeyPair, error) {
	pub := sharedrsa.PublicKey{N: key.N, E: big.NewInt(int64(key.E))}
	pre := key.Precomputed
	k, err := sharedrsa.NewCRTKey(pub, key.Primes, pre.Dp, pre.Dq, pre.Qinv)
	if err != nil {
		return nil, fmt.Errorf("pki: %w", err)
	}
	return &KeyPair{key: k}, nil
}

// Public returns the public half.
func (kp *KeyPair) Public() sharedrsa.PublicKey { return kp.key.Public() }

// KeyID returns the key identifier (hash of N and e).
func (kp *KeyPair) KeyID() string { return kp.key.Public().KeyID() }

// Sign produces an FDH-RSA signature over msg. It fails with
// sharedrsa.ErrSignFault, releasing nothing, when the signature does not
// verify.
func (kp *KeyPair) Sign(msg []byte) (sharedrsa.Signature, error) {
	return kp.key.Sign(msg)
}

// Signer abstracts over who produces a certificate signature: a
// conventional key pair (domain CA, user) or the coalition's joint
// signature protocol (the shared AA key). The paper's Case I lock box also
// satisfies it.
type Signer interface {
	// Public returns the verification key.
	Public() sharedrsa.PublicKey
	// Sign signs the payload.
	Sign(msg []byte) (sharedrsa.Signature, error)
}

// keyPairSigner adapts KeyPair to Signer.
type keyPairSigner struct{ kp *KeyPair }

var _ Signer = keyPairSigner{}

func (s keyPairSigner) Public() sharedrsa.PublicKey { return s.kp.Public() }

func (s keyPairSigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	return s.kp.Sign(msg)
}

// AsSigner wraps a conventional key pair as a Signer.
func (kp *KeyPair) AsSigner() Signer { return keyPairSigner{kp: kp} }

// jointSigner signs with the coalition's distributed private key shares
// (the Case II design): every signature is a run of the joint signature
// protocol of Section 3.2.
type jointSigner struct {
	pk     sharedrsa.PublicKey
	shares []sharedrsa.Share
}

// NewJointSigner wraps a shared key's public half and the member domains'
// exponent shares.
func NewJointSigner(pk sharedrsa.PublicKey, shares []sharedrsa.Share) Signer {
	ss := make([]sharedrsa.Share, len(shares))
	for i, s := range shares {
		ss[i] = s.Clone()
	}
	return &jointSigner{pk: pk, shares: ss}
}

// Public returns the shared public key.
func (j *jointSigner) Public() sharedrsa.PublicKey { return j.pk }

// Sign runs the joint signature protocol over all shares.
func (j *jointSigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	return sharedrsa.SignJointly(msg, j.pk, j.shares)
}
