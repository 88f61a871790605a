package pki

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
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

// certBody is the set of signed kinds, the certificates and the CRL,
// one row each: the union makes signing, verifying or fingerprinting
// anything else a compile error, and the methods are what each kind
// states for itself — its appender of the signed form (fingerprint.go),
// its issue-time check beyond the validity interval, and its validity
// interval, if it has one. Everything the kinds share is stated once, in
// Issue, Verify and Fingerprint.
type certBody interface {
	Identity | Attribute | ThresholdAttribute | GroupLink | IdentityRevocation | Revocation | Delegation | GroupGraphLink | CRL
	appendBody(dst []byte) []byte
	wellFormed() error
	// validity is the interval the certificate is valid over; ok is
	// false for the revocations, which have an upper bound of infinity
	// (footnote 2), and for the CRL.
	validity() (v clock.Interval, ok bool)
}

// Statement is the set of certificate kinds, every signed kind but the
// CRL: each is idealized (Idealize) as its issuer saying, at its issue
// time, the statement its own row builds.
type Statement interface {
	certBody
	issued() (issuer string, at clock.Time)
	statement() logic.Formula
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

// Issue signs a body after its issue-time checks: a validity interval
// that ends before it begins, then the kind's own (wellFormed). Who may
// sign a kind is the issuing authority's policy (internal/authority): a
// threshold attribute certificate, say, is Case II only when the signer
// is the coalition AA's joint signer.
func Issue[T certBody](body T, signer Signer) (Signed[T], error) {
	if v, ok := body.validity(); ok && v.End < v.Begin {
		return Signed[T]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	if err := body.wellFormed(); err != nil {
		return Signed[T]{}, err
	}
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

// Verify checks the signature over the body's signed form against the
// issuer's key, then, for a kind with a validity interval, that at lies
// in it; a bad signature wins over expiry.
func Verify[T certBody](sc Signed[T], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if sc.SignerKey != issuerKey.KeyID() {
		return fmt.Errorf("%w: signed by key %s, verifying with %s",
			errBadCertSignature, sc.SignerKey, issuerKey.KeyID())
	}
	s, ok := newIntFromHex(sc.SigS)
	if !ok {
		return fmt.Errorf("%w: bad signature encoding", ErrMalformed)
	}
	var buf [1024]byte // as in Fingerprint: the signed form stays on the stack
	if err := sharedrsa.Verify(appendSigned(buf[:0], sc.Cert), issuerKey, sharedrsa.Signature{S: s}); err != nil {
		return fmt.Errorf("%w: %v", errBadCertSignature, err)
	}
	return validAt(sc.Cert, at)
}

// validAt refuses at outside the body's validity interval, if it has one.
func validAt[T certBody](body T, at clock.Time) error {
	if v, ok := body.validity(); ok && !v.Contains(at) {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, v.Begin, v.End)
	}
	return nil
}

// VerifyIdentity is Verify for an identity certificate, kept for the
// benchmark's pki.verify_identity_us probe until that probe calls
// Verify (ROADMAP item 1).
func VerifyIdentity(sc Signed[Identity], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	return Verify(sc, issuerKey, at)
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

// wellFormed refuses a certificate that binds the subject to one key and
// names another's ID. The key itself is not judged here: whether it is a
// usable RSA key is the verifier's question.
func (c Identity) wellFormed() error {
	if c.Subject == "" || c.Issuer == "" {
		return fmt.Errorf("%w: missing subject or issuer", ErrMalformed)
	}
	n, okN := newIntFromHex(c.SubjectKey.N)
	e, okE := newIntFromHex(c.SubjectKey.E)
	if !okN || !okE || (sharedrsa.PublicKey{N: n, E: e}).KeyID() != c.KeyID {
		return fmt.Errorf("%w: key ID %q does not name the subject key", ErrMalformed, c.KeyID)
	}
	return nil
}

func (c Identity) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c Identity) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is K_P ⇒ [tb,te],CA P.
func (c Identity) statement() logic.Formula {
	return logic.KeySpeaksFor{
		K:   logic.KeyID(c.KeyID),
		T:   logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
		Who: logic.P(c.Subject),
	}
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

func (c Attribute) wellFormed() error {
	if c.Group == "" || c.Subject.Name == "" {
		return fmt.Errorf("%w: missing group or subject", ErrMalformed)
	}
	return nil
}

func (c Attribute) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c Attribute) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is P|K ⇒ [tb,te],CA' G.
func (c Attribute) statement() logic.Formula {
	return logic.MemberOf{
		Who: logic.P(c.Subject.Name).Bind(logic.KeyID(c.Subject.KeyID)),
		T:   logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
		G:   logic.G(c.Group),
	}
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

func (c ThresholdAttribute) wellFormed() error {
	if c.Group == "" || len(c.Subjects) == 0 {
		return fmt.Errorf("%w: missing group or subjects", ErrMalformed)
	}
	if c.M < 1 || c.M > len(c.Subjects) {
		return fmt.Errorf("%w: threshold %d of %d out of range", ErrMalformed, c.M, len(c.Subjects))
	}
	seen := make(map[string]bool, len(c.Subjects))
	for _, s := range c.Subjects {
		if s.Name == "" || s.KeyID == "" {
			return fmt.Errorf("%w: unbound subject %q", ErrMalformed, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: duplicate subject %q", ErrMalformed, s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

func (c ThresholdAttribute) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c ThresholdAttribute) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is CP(m,n) ⇒ [tb,te],AA G (message 1-3).
func (c ThresholdAttribute) statement() logic.Formula {
	return logic.MemberOf{
		Who: compoundOf(c.Subjects, c.M),
		T:   logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
		G:   logic.G(c.Group),
	}
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

func (c GroupLink) wellFormed() error {
	if c.Sub == "" || c.Sup == "" || c.Sub == c.Sup {
		return fmt.Errorf("%w: bad group link %q ⇒ %q", ErrMalformed, c.Sub, c.Sup)
	}
	return nil
}

func (c GroupLink) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c GroupLink) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is Group(Sub) ⇒ [tb,te],AA Group(Sup).
func (c GroupLink) statement() logic.Formula {
	return logic.GroupSpeaksFor{
		Sub: logic.G(c.Sub),
		T:   logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
		Sup: logic.G(c.Sup),
	}
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

func (c IdentityRevocation) wellFormed() error {
	if c.Subject == "" || c.KeyID == "" {
		return fmt.Errorf("%w: missing subject or key", ErrMalformed)
	}
	return nil
}

func (IdentityRevocation) validity() (clock.Interval, bool) { return clock.Interval{}, false }

func (c IdentityRevocation) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is ¬(K_P ⇒ t',CA P): the key binding no longer holds from
// the effective time t' on.
func (c IdentityRevocation) statement() logic.Formula {
	return logic.Not{F: logic.KeySpeaksFor{
		K:   logic.KeyID(c.KeyID),
		T:   logic.At(c.EffectiveAt).On(c.Issuer),
		Who: logic.P(c.Subject),
	}}
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

func (c Revocation) wellFormed() error {
	if c.Group == "" || len(c.Subjects) == 0 {
		return fmt.Errorf("%w: missing group or subjects", ErrMalformed)
	}
	return nil
}

func (Revocation) validity() (clock.Interval, bool) { return clock.Interval{}, false }

func (c Revocation) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is ¬(CP(m,n) ⇒ t',RA G) (message 2), with a single key-bound
// principal for a non-threshold certificate.
func (c Revocation) statement() logic.Formula {
	return logic.Not{F: logic.MemberOf{
		Who: SubjectOf(c.Subjects, c.M),
		T:   logic.At(c.EffectiveAt).On(c.Issuer),
		G:   logic.G(c.Group),
	}}
}

// Marshal serializes a signed certificate as JSON, the form the WAL
// journals and replication ships. It is not what the signature covers
// (the signed form, appendSigned): Unmarshal then Verify re-encodes the
// parsed body.
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
