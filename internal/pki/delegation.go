package pki

import (
	"fmt"
	"strings"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
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

func (c Delegation) wellFormed() error {
	switch {
	case c.Subject.Name == "" || c.Subject.KeyID == "":
		return fmt.Errorf("%w: unbound delegation subject", ErrMalformed)
	case c.Group == "":
		return fmt.Errorf("%w: delegation without group", ErrMalformed)
	case c.Perms == "":
		return fmt.Errorf("%w: delegation with empty permission set", ErrMalformed)
	case c.Depth < 0:
		return fmt.Errorf("%w: negative delegation depth %d", ErrMalformed, c.Depth)
	case c.Delegator == c.Subject.Name:
		return fmt.Errorf("%w: self-delegation by %q", ErrMalformed, c.Delegator)
	case strings.Contains(c.Delegator, ">") || strings.Contains(c.Subject.Name, ">"):
		// Names must not contain the chain-path separator.
		return fmt.Errorf("%w: principal name contains path separator", ErrMalformed)
	}
	return nil
}

func (c Delegation) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c Delegation) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is the raw chain link P|K delegated^d{perms}[delegator] for
// [tb,te],AA G: Path is the single delegator name ("" for a root grant);
// chain composition (logic.DelegationCompose) extends it to the full
// root-anchored path.
func (c Delegation) statement() logic.Formula {
	return logic.Delegates{
		To:    logic.P(c.Subject.Name).Bind(logic.KeyID(c.Subject.KeyID)),
		G:     logic.G(c.Group),
		Depth: c.Depth,
		Perms: c.Perms,
		Path:  c.Delegator,
		T:     logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
	}
}

func (c GroupGraphLink) wellFormed() error {
	if c.Sub == "" || c.Sup == "" || c.Sub == c.Sup {
		return fmt.Errorf("%w: bad graph link %q ⇒ %q", ErrMalformed, c.Sub, c.Sup)
	}
	if c.Depth < 0 {
		return fmt.Errorf("%w: negative graph depth %d", ErrMalformed, c.Depth)
	}
	return nil
}

func (c GroupGraphLink) validity() (clock.Interval, bool) {
	return clock.NewInterval(c.NotBefore, c.NotAfter), true
}

func (c GroupGraphLink) issued() (string, clock.Time) { return c.Issuer, c.IssuedAt }

// statement is Group(Sub) ⇒<d>_[tb,te],AA Group(Sup).
func (c GroupGraphLink) statement() logic.Formula {
	return logic.GroupGraphEdge{
		Sub:   logic.G(c.Sub),
		T:     logic.During(c.NotBefore, c.NotAfter).On(c.Issuer),
		Depth: c.Depth,
		Sup:   logic.G(c.Sup),
	}
}
