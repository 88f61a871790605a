package logic

import (
	"fmt"

	"jointadmin/internal/clock"
)

// Formula is the formula sort F_Γ of Appendix A (conditions F1–F22). Every
// node renders via String, which doubles as the equality key
// (FormulaEqual) and the belief-store index.
type Formula interface {
	formulaNode()
	// String returns the canonical form of the formula.
	String() string
}

// FormulaEqual reports whether two formulas render alike: it compares
// their String forms, the same key the belief store indexes by.
func FormulaEqual(a, b Formula) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}

// ---- F1–F3: propositional and temporal base ----

// Prop is a primitive proposition (F1).
type Prop struct {
	Name string
}

var _ Formula = Prop{}

func (Prop) formulaNode() {}

// String renders the proposition name.
func (p Prop) String() string { return p.Name }

// Not is ¬φ (F2).
type Not struct {
	F Formula
}

var _ Formula = Not{}

func (Not) formulaNode() {}

// String renders "¬φ".
func (n Not) String() string { return "¬" + n.F.String() }

// And is φ ∧ ψ (F2).
type And struct {
	L, R Formula
}

var _ Formula = And{}

func (And) formulaNode() {}

// String renders "(φ ∧ ψ)".
func (a And) String() string { return "(" + a.L.String() + " ∧ " + a.R.String() + ")" }

// Implies is φ ⊃ ψ. The paper takes all propositional tautologies as
// axioms; keeping an explicit implication node lets proofs cite modus
// ponens (rule R1) directly.
type Implies struct {
	L, R Formula
}

var _ Formula = Implies{}

func (Implies) formulaNode() {}

// String renders "(φ ⊃ ψ)".
func (i Implies) String() string { return "(" + i.L.String() + " ⊃ " + i.R.String() + ")" }

// TimeLE is t1 ≤ t2 (F3).
type TimeLE struct {
	A, B clock.Time
}

var _ Formula = TimeLE{}

func (TimeLE) formulaNode() {}

// String renders "t1 ≤ t2".
func (t TimeLE) String() string { return t.A.String() + " ≤ " + t.B.String() }

// Holds reports whether the comparison is true.
func (t TimeLE) Holds() bool { return t.A <= t.B }

// ---- F4–F7: modalities over principals and compound principals ----

// Believes is "W believes_T φ" (F4a–c, F5a–c).
type Believes struct {
	Who Subject
	T   TimeSpec
	F   Formula
}

var _ Formula = Believes{}

func (Believes) formulaNode() {}

// String renders "W believes_T φ".
func (b Believes) String() string {
	return b.Who.String() + " believes_" + b.T.String() + " " + b.F.String()
}

// Controls is "W controls_T φ" (F4, F5). Jurisdiction: W neither lies about
// φ nor makes contradictory statements about φ with the same timestamp.
type Controls struct {
	Who Subject
	T   TimeSpec
	F   Formula
}

var _ Formula = Controls{}

func (Controls) formulaNode() {}

// String renders "W controls_T φ".
func (c Controls) String() string {
	return c.Who.String() + " controls_" + c.T.String() + " " + c.F.String()
}

// Says is "W says_T X" (F6, F7): W uttered X at T on W's clock.
type Says struct {
	Who Subject
	T   TimeSpec
	X   Message
}

var _ Formula = Says{}

func (Says) formulaNode() {}

// String renders "W says_T X".
func (s Says) String() string {
	return s.Who.String() + " says_" + s.T.String() + " " + s.X.String()
}

// Said is "W said_T X" (F6, F7): W uttered X at or before T.
type Said struct {
	Who Subject
	T   TimeSpec
	X   Message
}

var _ Formula = Said{}

func (Said) formulaNode() {}

// String renders "W said_T X".
func (s Said) String() string {
	return s.Who.String() + " said_" + s.T.String() + " " + s.X.String()
}

// Received is "W received_T X" (F6, F7).
type Received struct {
	Who Subject
	T   TimeSpec
	X   Message
}

var _ Formula = Received{}

func (Received) formulaNode() {}

// String renders "W received_T X".
func (r Received) String() string {
	return r.Who.String() + " received_" + r.T.String() + " " + r.X.String()
}

// Has is "W has_T K" (F11): W can use key K at time T.
type Has struct {
	Who Subject
	T   TimeSpec
	K   KeyID
}

var _ Formula = Has{}

func (Has) formulaNode() {}

// String renders "W has_T K".
func (h Has) String() string {
	return h.Who.String() + " has_" + h.T.String() + " " + string(h.K)
}

// ---- F8–F10: key-speaks-for ----

// KeySpeaksFor is the certificate-core formula "K ⇒_T W": public key K is a
// good signature-verification key for W during T. W may be a Principal
// (F8), a CompoundPrincipal whose members hold distributed private key
// shares (F9), or a threshold construct CP(m,n) (F10) — the latter two are
// this paper's extension.
type KeySpeaksFor struct {
	K   KeyID
	T   TimeSpec
	Who Subject
}

var _ Formula = KeySpeaksFor{}

func (KeySpeaksFor) formulaNode() {}

// String renders "K ⇒_T W".
func (k KeySpeaksFor) String() string {
	return string(k.K) + " ⇒_" + k.T.String() + " " + k.Who.String()
}

// ---- F12–F16: group membership (speaks-for-group) ----

// MemberOf is "W ⇒_T G": subject W speaks for group G during T. The subject
// encodes all five paper variants:
//
//	F12 P ⇒ G        Principal without key
//	F13 P|K ⇒ G      Principal with key binding (selective distribution)
//	F14 CP ⇒ G       plain compound principal
//	F15 CP(m,n) ⇒ G  threshold, members individually key-bound
//	F16 CP|K ⇒ G     compound principal bound to one shared key
type MemberOf struct {
	Who Subject
	T   TimeSpec
	G   Group
}

var _ Formula = MemberOf{}

func (MemberOf) formulaNode() {}

// String renders "W ⇒_T Group(G)".
func (m MemberOf) String() string {
	return m.Who.String() + " ⇒_" + m.T.String() + " " + m.G.String()
}

// GroupSpeaksFor is "G1 ⇒_T G2": group G1 speaks for group G2 — the
// privilege-inheritance extension Section 4.1 mentions ("application-
// oriented policies such as privilege inheritance ... will not pose any
// additional fundamental design problems"). Groups are principals in the
// semantics, so this is the ordinary speaks-for relation restricted to
// group principals; the corresponding axiom is
//
//	G1 ⇒_t G2 ∧ G1 says_t X ⊃ G2 says_t X.
type GroupSpeaksFor struct {
	Sub Group
	T   TimeSpec
	Sup Group
}

var _ Formula = GroupSpeaksFor{}

func (GroupSpeaksFor) formulaNode() {}

// String renders "Group(G1) ⇒_T Group(G2)".
func (g GroupSpeaksFor) String() string {
	return g.Sub.String() + " ⇒_" + g.T.String() + " " + g.Sup.String()
}

// GroupSays is the derived "G says_t X" (conclusions of A34–A38). Groups
// are principals in the semantics; a dedicated node keeps the derivation
// target explicit.
type GroupSays struct {
	G Group
	T TimeSpec
	X Message
}

var _ Formula = GroupSays{}

func (GroupSays) formulaNode() {}

// String renders "Group(G) says_T X" in one buffer: this is a decision's
// Reason.
func (g GroupSays) String() string {
	var buf [256]byte
	b := g.G.appendTo(buf[:0])
	b = append(b, " says_"...)
	b = g.T.appendTo(b)
	b = append(b, ' ')
	return string(appendMessage(b, g.X))
}

// ---- Delegation & relationship extension (SPKI/ReBAC) ----

// Delegates is "P|K delegated^d{perms}[path] for G during T": subject To
// holds authority over group G's operations in perms, may extend the
// chain d more hops, and received that authority along path (">"-joined
// delegator names from the coalition root; "" for a direct root grant).
// As a certificate link the Path is the single delegator name; chain
// composition (DelegationCompose) rewrites it to the full root-anchored
// path, so a stored Delegates belief always witnesses a complete chain.
// All fields are comparable so the node can index the belief store.
type Delegates struct {
	To    Principal
	G     Group
	Depth int
	Perms string
	Path  string
	T     TimeSpec
}

var _ Formula = Delegates{}

func (Delegates) formulaNode() {}

// String renders "W delegated^d{perms}[path] ⇒_T Group(G)" — the digit
// and braces keep it disjoint from every MemberOf rendering.
func (d Delegates) String() string {
	return fmt.Sprintf("%s delegated^%d{%s}[%s] ⇒_%s %s",
		d.To.String(), d.Depth, d.Perms, d.Path, d.T.String(), d.G.String())
}

// GroupGraphEdge is "G1 ⇒<d>_T G2": group G1 is a member of group G2 in
// the relation graph, with a traversal budget of d further graph edges
// beyond this one. Unlike GroupSpeaksFor (unbounded privilege
// inheritance), graph edges decrement the budget, so derived membership
// through the relation graph is depth-bounded and cycle-safe.
type GroupGraphEdge struct {
	Sub   Group
	T     TimeSpec
	Depth int
	Sup   Group
}

var _ Formula = GroupGraphEdge{}

func (GroupGraphEdge) formulaNode() {}

// String renders "Group(G1) ⇒<d>_T Group(G2)" — the bracketed depth
// keeps it disjoint from GroupSpeaksFor's "⇒_" rendering.
func (g GroupGraphEdge) String() string {
	return fmt.Sprintf("%s ⇒<%d>_%s %s", g.Sub.String(), g.Depth, g.T.String(), g.Sup.String())
}

// ---- F17–F18: freshness ----

// Fresh is "fresh_{T,W} X": message X has not been said before in the run,
// as judged at W's clock.
type Fresh struct {
	T   TimeSpec
	Who string // observing principal's name (the clock subscript)
	X   Message
}

var _ Formula = Fresh{}

func (Fresh) formulaNode() {}

// String renders "fresh_{T,W} X".
func (f Fresh) String() string {
	return "fresh_" + f.T.String() + "," + f.Who + " " + f.X.String()
}

// ---- F19–F20: localization ----

// AtFormula is "φ at_P t": formula φ is present at principal P at time t on
// P's clock (F19); for a compound principal, on the synchronized clock
// (F20). P is the name of the locating principal or compound principal.
type AtFormula struct {
	F Formula
	P string
	T TimeSpec
}

var _ Formula = AtFormula{}

func (AtFormula) formulaNode() {}

// String renders "(φ at_P T)".
func (a AtFormula) String() string {
	return "(" + a.F.String() + " at_" + a.P + " " + a.T.String() + ")"
}

// ---- F21–F22 as jurisdiction schemas ----
//
// The initial beliefs of the authorization protocol (Appendix E, statements
// 1–11) are universally quantified: e.g. "(∀t) AA controls_t (∀G',CP',tb,te)
// CP' ⇒ [tb,te],AA G'". Rather than a general quantifier calculus, the
// engine represents exactly the three quantified shapes the protocol needs
// as schema formulas; rule application instantiates them. This mirrors how
// the paper itself uses F21/F22 — only inside those fixed belief shapes.

// KeyJurisdiction is the schema
//
//	(∀t)(∀Q',K_Q',t'b,t'e) CA controls_t (K_Q' ⇒_[t'b,t'e],CA Q')
//
// — CA has jurisdiction over public-key identity certificates for users in
// its domain (Appendix E statements 6, 8, 10).
type KeyJurisdiction struct {
	CA Principal
}

var _ Formula = KeyJurisdiction{}

func (KeyJurisdiction) formulaNode() {}

// String renders the quantified schema.
func (k KeyJurisdiction) String() string {
	return "(∀t)(∀Q,K,tb,te) " + k.CA.String() + " controls_t (K ⇒_[tb,te]," + k.CA.Name + " Q)"
}

// MembershipJurisdiction is the schema
//
//	(∀t) Auth controls_t (∀G',W',t'b,t'e) W' ⇒_[t'b,t'e],Auth G'
//
// — the attribute authority has jurisdiction over all group-membership
// certificates at Auth (Appendix E statements 2–3).
type MembershipJurisdiction struct {
	Authority Subject
	// AuthorityName is the clock/relativity subscript used in the
	// instantiated membership formulas ("⇒ [tb,te],AA").
	AuthorityName string
}

var _ Formula = MembershipJurisdiction{}

func (MembershipJurisdiction) formulaNode() {}

// String renders the quantified schema.
func (m MembershipJurisdiction) String() string {
	return "(∀t)(∀G,W,tb,te) " + m.Authority.String() + " controls_t (W ⇒_[tb,te]," +
		m.AuthorityName + " G)"
}

// SaysTimeJurisdiction is the schema
//
//	(∀t ≥ Since) Auth controls_[Since,t],Server (Auth says_t' φ)
//
// — the authority has jurisdiction over the time at which its time-stamped
// certificates are believed accurate, for all times after Since
// (Appendix E statements 4–5, 7, 9, 11).
type SaysTimeJurisdiction struct {
	Authority Subject
	Since     clock.Time
	Server    string // the relying principal whose clock measures the interval
}

var _ Formula = SaysTimeJurisdiction{}

func (SaysTimeJurisdiction) formulaNode() {}

// String renders the quantified schema.
func (s SaysTimeJurisdiction) String() string {
	return fmt.Sprintf("(∀t ≥ %s) %s controls_[%s,t],%s (%s says_t' φ)",
		s.Since, s.Authority.String(), s.Since, s.Server, s.Authority.String())
}

// Instantiate produces the concrete Controls formula over the says-body for
// the interval [Since, upTo] on the server's clock.
func (s SaysTimeJurisdiction) Instantiate(upTo clock.Time, body Says) (Controls, error) {
	if upTo < s.Since {
		return Controls{}, fmt.Errorf("says-time jurisdiction: %s precedes start %s", upTo, s.Since)
	}
	return Controls{
		Who: s.Authority,
		T:   During(s.Since, upTo).On(s.Server),
		F:   body,
	}, nil
}
