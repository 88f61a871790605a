package authority

import (
	"fmt"
	"math/big"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// lockBoxAA is the Case I coalition attribute authority: a conventional
// key pair whose private half lives in a (software-modeled) hardware lock
// box. The authorization protocol programmed into the AA requires all
// domain passwords before any private-key operation — but the key itself
// is a single point of trust failure: Compromise() hands the whole
// exponent to an attacker (experiment E4).
type lockBoxAA struct {
	name string
	box  *sharedrsa.LockBox
	clk  *clock.Clock
}

// EstablishCaseI builds the Case I AA: a dealer generates the key (inside
// the freshly programmed server, per the paper's narrative) and seals it
// behind one password per domain.
func EstablishCaseI(name string, domainPasswords []string, bits int, clk *clock.Clock) (*lockBoxAA, error) {
	res, err := sharedrsa.DealerSplit(bits, max2(len(domainPasswords)), nil)
	if err != nil {
		return nil, fmt.Errorf("authority: establish %s (case I): %w", name, err)
	}
	return &lockBoxAA{
		name: name,
		box:  sharedrsa.NewLockBox(res, domainPasswords),
		clk:  clk,
	}, nil
}

func max2(n int) int {
	if n < 2 {
		return 2
	}
	return n
}

// Public returns the conventional public key.
func (aa *lockBoxAA) Public() sharedrsa.PublicKey { return aa.box.Public() }

// lockBoxSigner adapts the lock box to pki.Signer for a given password
// presentation.
type lockBoxSigner struct {
	box       *sharedrsa.LockBox
	passwords []string
}

var _ pki.Signer = lockBoxSigner{}

func (s lockBoxSigner) Public() sharedrsa.PublicKey { return s.box.Public() }

func (s lockBoxSigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	return s.box.Sign(msg, s.passwords)
}

// IssueThreshold issues a threshold attribute certificate if all domain
// passwords are presented (the Case I joint cryptographic request).
func (aa *lockBoxAA) IssueThreshold(passwords []string, group string, m int, subjects []pki.BoundSubject, validity clock.Interval) (pki.Signed[pki.ThresholdAttribute], error) {
	body := pki.ThresholdAttribute{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Group:     group,
		M:         m,
		Subjects:  subjects,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.IssueThresholdAttribute(body, lockBoxSigner{box: aa.box, passwords: passwords})
}

// Compromise models the insider/penetration attack: it returns a signer
// that needs no passwords at all. Any certificate it produces verifies
// exactly like a legitimate one — the repudiable unilateral issuance the
// paper warns about.
func (aa *lockBoxAA) Compromise() pki.Signer {
	d := aa.box.Compromise()
	return stolenKeySigner{pk: aa.box.Public(), d: d}
}

// stolenKeySigner signs with an exfiltrated private exponent: the
// attacker's capability after a Case I compromise.
type stolenKeySigner struct {
	pk sharedrsa.PublicKey
	d  *big.Int
}

var _ pki.Signer = stolenKeySigner{}

func (s stolenKeySigner) Public() sharedrsa.PublicKey { return s.pk }

func (s stolenKeySigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	h := sharedrsa.HashMessage(msg, s.pk)
	return sharedrsa.Signature{S: new(big.Int).Exp(h, s.d, s.pk.N)}, nil
}

// RevocationAuthority (RA) is "authorized to provide revocation
// information on behalf of AA" (Section 4.3). It has a conventional key;
// relying servers are configured with RA's membership jurisdiction. The
// RA also accumulates its revocations and publishes signed CRLs.
type RevocationAuthority struct {
	name     string
	key      *pki.KeyPair
	clk      *clock.Clock
	registry *pki.RevocationRegistry
}

// NewRA creates a revocation authority with a fresh key pair.
func NewRA(name string, bits int, clk *clock.Clock) (*RevocationAuthority, error) {
	kp, err := pki.GenerateKeyPair(bits, nil)
	if err != nil {
		return nil, fmt.Errorf("authority: RA %s keygen: %w", name, err)
	}
	ra := &RevocationAuthority{name: name, key: kp, clk: clk}
	ra.registry = pki.NewRevocationRegistry(name, kp.AsSigner())
	return ra, nil
}

// Name returns the RA's name.
func (ra *RevocationAuthority) Name() string { return ra.name }

// Public returns the RA's verification key.
func (ra *RevocationAuthority) Public() sharedrsa.PublicKey { return ra.key.Public() }

// Revoke issues a revocation certificate for a threshold attribute
// certificate, effective at the given time.
func (ra *RevocationAuthority) Revoke(cert pki.Signed[pki.ThresholdAttribute], effective clock.Time) (pki.Signed[pki.Revocation], error) {
	body := pki.Revocation{
		Issuer:      ra.name,
		IssuedAt:    ra.clk.Now(),
		Group:       cert.Cert.Group,
		M:           cert.Cert.M,
		Subjects:    cert.Cert.Subjects,
		EffectiveAt: effective,
	}
	rev, err := pki.IssueRevocation(body, ra.key.AsSigner())
	if err != nil {
		return rev, err
	}
	ra.registry.Add(rev)
	return rev, nil
}

// RevokeAttribute issues a revocation certificate for a single-subject
// attribute certificate (M = 0 marks the non-threshold form).
func (ra *RevocationAuthority) RevokeAttribute(cert pki.Signed[pki.Attribute], effective clock.Time) (pki.Signed[pki.Revocation], error) {
	body := pki.Revocation{
		Issuer:      ra.name,
		IssuedAt:    ra.clk.Now(),
		Group:       cert.Cert.Group,
		M:           0,
		Subjects:    []pki.BoundSubject{cert.Cert.Subject},
		EffectiveAt: effective,
	}
	rev, err := pki.IssueRevocation(body, ra.key.AsSigner())
	if err != nil {
		return rev, err
	}
	ra.registry.Add(rev)
	return rev, nil
}

// PublishCRL signs and returns the RA's current revocation list.
func (ra *RevocationAuthority) PublishCRL() (pki.Signed[pki.CRL], error) {
	return ra.registry.Publish(ra.clk.Now())
}
