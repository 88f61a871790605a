package pki

import (
	"fmt"
	"strings"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// This file defines the delegation-subsystem certificates: bounded-depth
// delegation links (SPKI-style attenuated authority, after Halpern–van der
// Meyden's reconstruction) and group-graph links (groups as members of
// groups with a traversal budget). Both are coalition-AA certificates and
// are co-signed exactly like the A3x certificates of the paper; only their
// idealized bodies differ.

// Delegation is the body of a delegation-link certificate. A root grant
// (Delegator == "") is the coalition delegating directly to Subject; a
// chain link names the Delegator whose authority the Subject extends. The
// link carries its own depth bound (how many further hops the Subject may
// delegate), an attenuated permission set (canonical comma-joined sorted
// operations, "*" for all), and a validity interval.
type Delegation struct {
	Issuer    string       `json:"issuer"` // AA name
	IssuedAt  clock.Time   `json:"issuedAt"`
	Delegator string       `json:"delegator,omitempty"` // "" = root grant
	Subject   BoundSubject `json:"subject"`
	Group     string       `json:"group"`
	Depth     int          `json:"depth"`
	Perms     string       `json:"perms"` // canonical perm set, "*" = all
	NotBefore clock.Time   `json:"notBefore"`
	NotAfter  clock.Time   `json:"notAfter"`
}

// GroupGraphLink is the body of a group-graph membership certificate:
// group Sub is a member of group Sup ("Sub ⇒<Depth>_[tb,te] Sup"), so
// membership derived through Sub reaches Sup's privileges. Depth bounds
// how many further graph links a traversal may cross after this one —
// the delegation-bit analogue for the relation graph; traversal is
// cycle-safe because the budget strictly decreases across graph edges.
type GroupGraphLink struct {
	Issuer    string     `json:"issuer"` // AA name
	IssuedAt  clock.Time `json:"issuedAt"`
	Sub       string     `json:"sub"`
	Sup       string     `json:"sup"`
	Depth     int        `json:"depth"`
	NotBefore clock.Time `json:"notBefore"`
	NotAfter  clock.Time `json:"notAfter"`
}

// IssueDelegation signs a delegation-link certificate. Names must not
// contain the chain-path separator '>'.
func IssueDelegation(body Delegation, signer Signer) (Signed[Delegation], error) {
	if body.Subject.Name == "" || body.Subject.KeyID == "" {
		return Signed[Delegation]{}, fmt.Errorf("%w: unbound delegation subject", ErrMalformed)
	}
	if body.Group == "" {
		return Signed[Delegation]{}, fmt.Errorf("%w: delegation without group", ErrMalformed)
	}
	if body.Perms == "" {
		return Signed[Delegation]{}, fmt.Errorf("%w: delegation with empty permission set", ErrMalformed)
	}
	if body.Depth < 0 {
		return Signed[Delegation]{}, fmt.Errorf("%w: negative delegation depth %d", ErrMalformed, body.Depth)
	}
	if body.Delegator == body.Subject.Name {
		return Signed[Delegation]{}, fmt.Errorf("%w: self-delegation by %q", ErrMalformed, body.Delegator)
	}
	if strings.Contains(body.Delegator, ">") || strings.Contains(body.Subject.Name, ">") {
		return Signed[Delegation]{}, fmt.Errorf("%w: principal name contains path separator", ErrMalformed)
	}
	if body.NotAfter < body.NotBefore {
		return Signed[Delegation]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyDelegation checks signature and validity.
func VerifyDelegation(sc Signed[Delegation], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// IssueGroupGraphLink signs a group-graph membership certificate.
func IssueGroupGraphLink(body GroupGraphLink, signer Signer) (Signed[GroupGraphLink], error) {
	if body.Sub == "" || body.Sup == "" || body.Sub == body.Sup {
		return Signed[GroupGraphLink]{}, fmt.Errorf("%w: bad graph link %q ⇒ %q", ErrMalformed, body.Sub, body.Sup)
	}
	if body.Depth < 0 {
		return Signed[GroupGraphLink]{}, fmt.Errorf("%w: negative graph depth %d", ErrMalformed, body.Depth)
	}
	if body.NotAfter < body.NotBefore {
		return Signed[GroupGraphLink]{}, fmt.Errorf("%w: validity interval reversed", ErrMalformed)
	}
	return signBody(body, signer)
}

// VerifyGroupGraphLink checks signature and validity.
func VerifyGroupGraphLink(sc Signed[GroupGraphLink], issuerKey sharedrsa.PublicKey, at clock.Time) error {
	if err := verifyBody(sc, issuerKey); err != nil {
		return err
	}
	if at < sc.Cert.NotBefore || at > sc.Cert.NotAfter {
		return fmt.Errorf("%w: %s outside [%s, %s]", ErrExpired, at, sc.Cert.NotBefore, sc.Cert.NotAfter)
	}
	return nil
}

// DelegationLinkFormula returns the raw chain-link formula the
// certificate idealizes to: Path is the single delegator name ("" for a
// root grant); chain composition (logic.DelegationCompose) extends it to
// the full root-anchored path.
func DelegationLinkFormula(sc Signed[Delegation]) logic.Delegates {
	return logic.Delegates{
		To:    logic.P(sc.Cert.Subject.Name).Bind(logic.KeyID(sc.Cert.Subject.KeyID)),
		G:     logic.G(sc.Cert.Group),
		Depth: sc.Cert.Depth,
		Perms: sc.Cert.Perms,
		Path:  sc.Cert.Delegator,
		T:     logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
	}
}

// IdealizeDelegation renders the delegation-link certificate as
// ⟦AA says_tAA (P|K delegated^d{perms}[delegator] for [tb,te],AA G)⟧_KAA⁻¹.
func IdealizeDelegation(sc Signed[Delegation]) logic.Signed {
	body := DelegationLinkFormula(sc)
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// IdealizeGroupGraphLink renders the group-graph certificate as
// ⟦AA says_tAA (Group(Sub) ⇒<d>_[tb,te],AA Group(Sup))⟧_KAA⁻¹.
func IdealizeGroupGraphLink(sc Signed[GroupGraphLink]) logic.Signed {
	body := logic.GroupGraphEdge{
		Sub:   logic.G(sc.Cert.Sub),
		T:     logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
		Depth: sc.Cert.Depth,
		Sup:   logic.G(sc.Cert.Sup),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}
