package pki

import (
	"fmt"
	"sort"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
)

// CRL is a certificate revocation list: the batch distribution channel for
// revocation certificates. Relying servers poll the RA (or receive pushed
// CRLs) and feed each entry into their belief stores — the paper's "verify
// the most recent available revocation information before granting
// access".
type CRL struct {
	Issuer   string               `json:"issuer"`
	IssuedAt clock.Time           `json:"issuedAt"`
	Seq      int                  `json:"seq"`
	Entries  []Signed[Revocation] `json:"entries"`
}

// SignedCRL is a CRL under the issuer's signature: entries cannot be
// dropped or injected in transit without detection.
type SignedCRL struct {
	CRL       CRL    `json:"crl"`
	SignerKey string `json:"signerKey"`
	SigS      string `json:"sig"`
}

const tagCRL = "crl"

// IssueCRL signs a CRL over the given revocation entries.
func IssueCRL(issuer string, seq int, at clock.Time, entries []Signed[Revocation], signer Signer) (SignedCRL, error) {
	body := CRL{Issuer: issuer, IssuedAt: at, Seq: seq, Entries: entries}
	p, err := payload(tagCRL, body)
	if err != nil {
		return SignedCRL{}, err
	}
	sig, err := signer.Sign(p)
	if err != nil {
		return SignedCRL{}, fmt.Errorf("pki: sign crl: %w", err)
	}
	return SignedCRL{CRL: body, SignerKey: signer.Public().KeyID(), SigS: sig.S.Text(16)}, nil
}

// VerifyCRL checks the list signature against the issuer key.
func VerifyCRL(sc SignedCRL, issuerKey sharedrsa.PublicKey) error {
	if sc.SignerKey != issuerKey.KeyID() {
		return fmt.Errorf("%w: crl signed by key %s", ErrBadCertSignature, sc.SignerKey)
	}
	p, err := payload(tagCRL, sc.CRL)
	if err != nil {
		return err
	}
	s, ok := newIntFromHex(sc.SigS)
	if !ok {
		return fmt.Errorf("%w: bad crl signature encoding", ErrMalformed)
	}
	if err := sharedrsa.Verify(p, issuerKey, sharedrsa.Signature{S: s}); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertSignature, err)
	}
	return nil
}

// RevocationRegistry accumulates revocation certificates at an authority
// and publishes monotonically numbered CRLs.
type RevocationRegistry struct {
	issuer string
	signer Signer

	mu      sync.Mutex
	entries []Signed[Revocation]
	seq     int
}

// NewRevocationRegistry creates a registry publishing under the signer.
func NewRevocationRegistry(issuer string, signer Signer) *RevocationRegistry {
	return &RevocationRegistry{issuer: issuer, signer: signer}
}

// Add records a revocation certificate for the next CRL.
func (r *RevocationRegistry) Add(rev Signed[Revocation]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, rev)
}

// Publish signs and returns the current CRL, bumping the sequence number.
func (r *RevocationRegistry) Publish(at clock.Time) (SignedCRL, error) {
	r.mu.Lock()
	entries := make([]Signed[Revocation], len(r.entries))
	copy(entries, r.entries)
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	// Deterministic order for reproducible payloads.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Cert.Group != entries[j].Cert.Group {
			return entries[i].Cert.Group < entries[j].Cert.Group
		}
		return entries[i].Cert.EffectiveAt < entries[j].Cert.EffectiveAt
	})
	return IssueCRL(r.issuer, seq, at, entries, r.signer)
}
