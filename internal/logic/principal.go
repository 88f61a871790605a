// Package logic implements the access-control logic of Khurana, Gligor and
// Linn, "Reasoning about Joint Administration of Access Policies for
// Coalition Resources" (ICDCS 2002), Appendices A and B.
//
// The logic extends the authentication logics of Lampson et al. and
// Stubblebine–Wright and the access-control calculus of Abadi et al. with:
//
//   - compound principals CP = {P1, ..., Pn} that own distributed private
//     key shares of a single public key (formulas F5, F7, F9),
//   - threshold constructs CP(m,n) (F10, F15),
//   - multi-principal jurisdiction over formulas (axioms A23, A29–A33),
//   - access-control formulas for group membership, including selective
//     (key-bound) membership P|K ⇒t G (F12–F16, A24–A38), and
//   - time-stamped distribution and revocation of identity, attribute and
//     threshold attribute certificates.
//
// Formulas are immutable ASTs. Structural equality is by canonical string
// form (every node's String method is injective over the AST), which also
// serves as the index key of belief stores.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// KeyID names a public key (e.g. a fingerprint). The corresponding private
// key K^-1 is never represented in the logic, only in signed-message terms.
type KeyID string

// String renders the key id.
func (k KeyID) String() string { return string(k) }

// Subject is anything that can believe, say, control, or speak for a group:
// a simple Principal or a CompoundPrincipal.
type Subject interface {
	subjectNode()
	// String returns the canonical form of the subject.
	String() string
}

// Principal is a simple system principal, optionally bound to a public key
// ("P|K" in the paper, F13): a key-bound principal must sign with K^-1 to
// exercise privileges granted to the binding.
type Principal struct {
	Name string
	// Key, if non-empty, is the binding K in "P|K".
	Key KeyID
}

var _ Subject = Principal{}

func (Principal) subjectNode() {}

// P returns the unbound principal named n.
func P(n string) Principal { return Principal{Name: n} }

// Bind returns the key-bound principal "p|K".
func (p Principal) Bind(k KeyID) Principal { return Principal{Name: p.Name, Key: k} }

// Unbound returns the principal without its key binding.
func (p Principal) Unbound() Principal { return Principal{Name: p.Name} }

// IsBound reports whether the principal carries a key binding.
func (p Principal) IsBound() bool { return p.Key != "" }

// String renders "P" or "P|K".
func (p Principal) String() string {
	if p.Key == "" {
		return p.Name
	}
	return p.Name + "|" + string(p.Key)
}

// CompoundPrincipal is CP = {P1, ..., Pn}, a set of principals that
// collectively send and receive messages (F5). Threshold reports m in the
// CP(m,n) construct (F10); Threshold == 0 means the plain compound principal
// (all members). Key, if set, is the single binding of F16 ("CP|K").
//
// Members are kept sorted by name so that the canonical form is independent
// of construction order, matching the paper's treatment of CP as a set.
type CompoundPrincipal struct {
	members   []Principal
	threshold int
	key       KeyID
}

var _ Subject = CompoundPrincipal{}

func (CompoundPrincipal) subjectNode() {}

// CP constructs a compound principal from its members (order-insensitive).
func CP(members ...Principal) CompoundPrincipal {
	ms := make([]Principal, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Key < ms[j].Key
	})
	return CompoundPrincipal{members: ms}
}

// WithThreshold returns the threshold construct CP(m,n). m should satisfy
// 1 <= m <= n; it is stored as given, not checked.
func (c CompoundPrincipal) WithThreshold(m int) CompoundPrincipal {
	c.threshold = m
	return c
}

// WithKey returns the key-bound compound principal "CP|K" (F16).
func (c CompoundPrincipal) WithKey(k KeyID) CompoundPrincipal {
	c.key = k
	return c
}

// Members returns a copy of the member list, sorted canonically.
func (c CompoundPrincipal) Members() []Principal {
	out := make([]Principal, len(c.members))
	copy(out, c.members)
	return out
}

// Threshold returns m of the CP(m,n) construct, or 0 for a plain CP.
func (c CompoundPrincipal) Threshold() int { return c.threshold }

// Key returns the CP|K binding, or "" if unbound.
func (c CompoundPrincipal) Key() KeyID { return c.key }

// IsThreshold reports whether this is a CP(m,n) construct.
func (c CompoundPrincipal) IsThreshold() bool { return c.threshold > 0 }

// Contains reports whether p (compared by name, ignoring key bindings) is a
// member of the compound principal.
func (c CompoundPrincipal) Contains(name string) bool {
	for _, m := range c.members {
		if m.Name == name {
			return true
		}
	}
	return false
}

// MemberKey returns the key binding of the named member and whether the
// member exists and is bound. Threshold attribute certificates bind each
// member to a specific key (F15) so that access requests must be signed
// with exactly those keys.
func (c CompoundPrincipal) MemberKey(name string) (KeyID, bool) {
	for _, m := range c.members {
		if m.Name == name {
			return m.Key, m.Key != ""
		}
	}
	return "", false
}

// String renders "{P1,P2,...}", "{...}(m,n)", or "{...}|K".
func (c CompoundPrincipal) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range c.members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(m.String())
	}
	b.WriteByte('}')
	if c.threshold > 0 {
		fmt.Fprintf(&b, "(%d,%d)", c.threshold, len(c.members))
	}
	if c.key != "" {
		b.WriteByte('|')
		b.WriteString(string(c.key))
	}
	return b.String()
}

// SameMembers reports whether two compound principals have identical member
// sets (including key bindings), ignoring threshold and CP-level key.
func (c CompoundPrincipal) SameMembers(o CompoundPrincipal) bool {
	if len(c.members) != len(o.members) {
		return false
	}
	for i := range c.members {
		if c.members[i] != o.members[i] {
			return false
		}
	}
	return true
}

// Group is a named group that appears on policy objects (ACLs). Groups are
// principals in the semantics ("we define a principal G that denotes a
// group"), but in the logic they only occur on the right of ⇒ and as the
// subject of derived "G says X" statements.
type Group struct {
	Name string
}

// G returns the group named n.
func G(n string) Group { return Group{Name: n} }

// String renders the group name.
func (g Group) String() string {
	var buf [64]byte
	return string(g.appendTo(buf[:0]))
}

func (g Group) appendTo(b []byte) []byte {
	b = append(b, "Group("...)
	b = append(b, g.Name...)
	return append(b, ')')
}

// SubjectEqual reports whether two subjects render alike: it compares
// their String forms.
func SubjectEqual(a, b Subject) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}
