package pki

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
)

// Sentinel errors.
var (
	// ErrExpired indicates a certificate outside its validity period.
	ErrExpired = errors.New("pki: certificate not valid at this time")
	// errBadCertSignature indicates a signature that does not verify.
	errBadCertSignature = errors.New("pki: certificate signature invalid")
	// ErrMalformed indicates a structurally invalid certificate.
	ErrMalformed = errors.New("pki: malformed certificate")
)

// KeyInfo is a serializable RSA public key.
type KeyInfo struct {
	N string `json:"n"` // hex
	E string `json:"e"` // hex
}

// NewKeyInfo encodes a public key.
func NewKeyInfo(pk sharedrsa.PublicKey) KeyInfo {
	return KeyInfo{N: sharedrsa.FormatHex(pk.N), E: sharedrsa.FormatHex(pk.E)}
}

// PublicKey decodes the key info. A modulus that is not odd and at least
// 3, or an exponent below 3, is no RSA key and is ErrMalformed.
func (ki KeyInfo) PublicKey() (sharedrsa.PublicKey, error) {
	n, ok := newIntFromHex(ki.N)
	if !ok || n.Bit(0) == 0 || n.Cmp(big3) < 0 {
		return sharedrsa.PublicKey{}, fmt.Errorf("%w: bad modulus", ErrMalformed)
	}
	e, ok := newIntFromHex(ki.E)
	if !ok || e.Cmp(big3) < 0 {
		return sharedrsa.PublicKey{}, fmt.Errorf("%w: bad exponent", ErrMalformed)
	}
	return sharedrsa.PublicKey{N: n, E: e}, nil
}

var big3 = big.NewInt(3)

// BoundSubject is one subject entry of a (threshold) attribute
// certificate: a principal name cryptographically bound to a key id — the
// "P|K" selective-distribution binding of the paper.
type BoundSubject struct {
	Name  string `json:"name"`
	KeyID string `json:"keyId"`
}

// Identity is the body of an identity certificate: the idealized message
// "CA says_tCA (K_P ⇒ [tb,te],CA P)".
type Identity struct {
	Issuer     string     `json:"issuer"`   // CA name
	IssuedAt   clock.Time `json:"issuedAt"` // tCA
	Subject    string     `json:"subject"`  // principal name
	SubjectKey KeyInfo    `json:"subjectKey"`
	KeyID      string     `json:"keyId"` // hash of SubjectKey
	NotBefore  clock.Time `json:"notBefore"`
	NotAfter   clock.Time `json:"notAfter"`
}

// Attribute is the body of an attribute certificate granting a single
// subject membership in a group: "CA' says (P|K ⇒ [tb,te] G)".
type Attribute struct {
	Issuer    string       `json:"issuer"`
	IssuedAt  clock.Time   `json:"issuedAt"`
	Group     string       `json:"group"`
	Subject   BoundSubject `json:"subject"`
	NotBefore clock.Time   `json:"notBefore"`
	NotAfter  clock.Time   `json:"notAfter"`
}

// ThresholdAttribute is the body of a threshold attribute certificate:
// "AA says (CP(m,n) ⇒ [tb,te],AA G)" with the subject set listed
// explicitly ("the threshold attribute certificate includes the set of
// principals comprising CP").
type ThresholdAttribute struct {
	Issuer    string         `json:"issuer"` // AA name
	IssuedAt  clock.Time     `json:"issuedAt"`
	Group     string         `json:"group"`
	M         int            `json:"m"`
	Subjects  []BoundSubject `json:"subjects"`
	NotBefore clock.Time     `json:"notBefore"`
	NotAfter  clock.Time     `json:"notAfter"`
}

// GroupLink is the body of a privilege-inheritance certificate: members of
// Sub inherit the privileges of Sup ("G_sub ⇒ [tb,te] G_sup").
type GroupLink struct {
	Issuer    string     `json:"issuer"` // AA name
	IssuedAt  clock.Time `json:"issuedAt"`
	Sub       string     `json:"sub"`
	Sup       string     `json:"sup"`
	NotBefore clock.Time `json:"notBefore"`
	NotAfter  clock.Time `json:"notAfter"`
}

// IdentityRevocation is the body of an identity revocation certificate:
// "CA says ¬(K_P ⇒ t' P)" — the CA withdraws the key binding (identity
// revocation is per Stubblebine–Wright, which the paper defers to).
type IdentityRevocation struct {
	Issuer      string     `json:"issuer"` // CA name
	IssuedAt    clock.Time `json:"issuedAt"`
	Subject     string     `json:"subject"`
	KeyID       string     `json:"keyId"`
	EffectiveAt clock.Time `json:"effectiveAt"`
}

// Revocation is the body of a revocation certificate: "RA says ¬(CP(m,n) ⇒
// t' G)". Revocations have an upper bound of infinity (footnote 2).
type Revocation struct {
	Issuer      string         `json:"issuer"` // RA name
	IssuedAt    clock.Time     `json:"issuedAt"`
	Group       string         `json:"group"`
	M           int            `json:"m"` // 0 for single-subject certificates
	Subjects    []BoundSubject `json:"subjects"`
	EffectiveAt clock.Time     `json:"effectiveAt"`
}

// Signed pairs a signed body (a certificate or a CRL) with the signer's
// key id and the signature, which covers the body's signed form: the
// length-prefixed binary encoding appendSigned writes, kind tag first,
// the bytes Fingerprint hashes.
type Signed[T any] struct {
	Cert      T      `json:"cert"`
	SignerKey string `json:"signerKey"` // key id of the verification key
	SigS      string `json:"sig"`       // signature value, hex
}

// signBody signs the body's signed form with the signer.
func signBody[T certBody](body T, signer Signer) (Signed[T], error) {
	sig, err := signer.Sign(appendSigned(nil, body))
	if err != nil {
		return Signed[T]{}, fmt.Errorf("pki: sign %T: %w", body, err)
	}
	return Signed[T]{
		Cert:      body,
		SignerKey: signer.Public().KeyID(),
		SigS:      sharedrsa.FormatHex(sig.S),
	}, nil
}

// verifyBody checks the signature over the body's signed form against
// the expected key.
func verifyBody[T certBody](sc Signed[T], pk sharedrsa.PublicKey) error {
	if sc.SignerKey != pk.KeyID() {
		return fmt.Errorf("%w: signed by key %s, verifying with %s",
			errBadCertSignature, sc.SignerKey, pk.KeyID())
	}
	s, ok := newIntFromHex(sc.SigS)
	if !ok {
		return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
	}
	var buf [1024]byte // as in Fingerprint: the signed form stays on the stack
	if err := sharedrsa.Verify(appendSigned(buf[:0], sc.Cert), pk, sharedrsa.Signature{S: s}); err != nil {
		return fmt.Errorf("%w: %v", errBadCertSignature, err)
	}
	return nil
}

// IssueGroupLink signs a privilege-inheritance certificate.
func IssueGroupLink(body GroupLink, signer Signer) (Signed[GroupLink], error) {
	if body.Sub == "" || body.Sup == "" || body.Sub == body.Sup {
		return Signed[GroupLink]{}, fmt.Errorf("%w: bad group link %q ⇒ %q", ErrMalformed, body.Sub, body.Sup)
	}
	if body.NotAfter < body.NotBefore {
		return Signed[GroupLink]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyGroupLink checks signature and validity.
func VerifyGroupLink(sc Signed[GroupLink], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// IssueIdentityRevocation signs an identity revocation certificate.
func IssueIdentityRevocation(body IdentityRevocation, signer Signer) (Signed[IdentityRevocation], error) {
	if body.Subject == "" || body.KeyID == "" {
		return Signed[IdentityRevocation]{}, fmt.Errorf("%w: missing subject or key", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyIdentityRevocation checks the revocation signature (no expiry).
func VerifyIdentityRevocation(sc Signed[IdentityRevocation], issuerKey sharedrsa.PublicKey) error {
	return verifyBody(sc, issuerKey)
}

// IssueIdentity signs an identity certificate. The body's KeyID must be
// the ID of its SubjectKey: a certificate is refused that binds the
// subject to one key and names another. The key itself is not judged
// here — whether it is a usable RSA key is the verifier's question.
func IssueIdentity(body Identity, signer Signer) (Signed[Identity], error) {
	if body.Subject == "" || body.Issuer == "" {
		return Signed[Identity]{}, fmt.Errorf("%w: missing subject or issuer", ErrMalformed)
	}
	if body.NotAfter < body.NotBefore {
		return Signed[Identity]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	n, okN := newIntFromHex(body.SubjectKey.N)
	e, okE := newIntFromHex(body.SubjectKey.E)
	if !okN || !okE || (sharedrsa.PublicKey{N: n, E: e}).KeyID() != body.KeyID {
		return Signed[Identity]{}, fmt.Errorf("%w: key ID %q does not name the subject key", ErrMalformed, body.KeyID)
	}
	return signBody(body, signer)
}

// VerifyIdentity checks signature and validity at the given time.
func VerifyIdentity(sc Signed[Identity], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// IssueAttribute signs a single-subject attribute certificate.
func IssueAttribute(body Attribute, signer Signer) (Signed[Attribute], error) {
	if body.Group == "" || body.Subject.Name == "" {
		return Signed[Attribute]{}, fmt.Errorf("%w: missing group or subject", ErrMalformed)
	}
	if body.NotAfter < body.NotBefore {
		return Signed[Attribute]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyAttribute checks signature and validity.
func VerifyAttribute(sc Signed[Attribute], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// IssueThresholdAttribute signs a threshold attribute certificate. The
// signer must be the coalition AA's joint signer for Case II semantics —
// that requirement is the coalition authority's policy, enforced in
// internal/authority.
func IssueThresholdAttribute(body ThresholdAttribute, signer Signer) (Signed[ThresholdAttribute], error) {
	if body.Group == "" || len(body.Subjects) == 0 {
		return Signed[ThresholdAttribute]{}, fmt.Errorf("%w: missing group or subjects", ErrMalformed)
	}
	if body.M < 1 || body.M > len(body.Subjects) {
		return Signed[ThresholdAttribute]{}, fmt.Errorf("%w: threshold %d of %d out of range",
			ErrMalformed, body.M, len(body.Subjects))
	}
	if body.NotAfter < body.NotBefore {
		return Signed[ThresholdAttribute]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	seen := make(map[string]bool, len(body.Subjects))
	for _, s := range body.Subjects {
		if s.Name == "" || s.KeyID == "" {
			return Signed[ThresholdAttribute]{}, fmt.Errorf("%w: unbound subject %q", ErrMalformed, s.Name)
		}
		if seen[s.Name] {
			return Signed[ThresholdAttribute]{}, fmt.Errorf("%w: duplicate subject %q", ErrMalformed, s.Name)
		}
		seen[s.Name] = true
	}
	return signBody(body, signer)
}

// VerifyThresholdAttribute checks signature and validity.
func VerifyThresholdAttribute(sc Signed[ThresholdAttribute], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// IssueRevocation signs a revocation certificate.
func IssueRevocation(body Revocation, signer Signer) (Signed[Revocation], error) {
	if body.Group == "" || len(body.Subjects) == 0 {
		return Signed[Revocation]{}, fmt.Errorf("%w: missing group or subjects", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyRevocation checks the revocation signature (revocations do not
// expire; footnote 2).
func VerifyRevocation(sc Signed[Revocation], issuerKey sharedrsa.PublicKey) error {
	return verifyBody(sc, issuerKey)
}

// Marshal serializes a signed certificate as JSON, the form the WAL
// journals and replication ships. It is not what the signature covers
// (the signed form, appendSigned): Unmarshal then a Verify function
// re-encodes the parsed body.
func Marshal[T any](sc Signed[T]) ([]byte, error) {
	b, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("pki: marshal: %w", err)
	}
	return b, nil
}

// Unmarshal parses a signed certificate that Marshal encoded.
func Unmarshal[T any](b []byte) (Signed[T], error) {
	var sc Signed[T]
	if err := json.Unmarshal(b, &sc); err != nil {
		return Signed[T]{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return sc, nil
}
