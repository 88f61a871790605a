package logic

import (
	"errors"
	"fmt"

	"jointadmin/internal/clock"
)

// This file implements the axiom schemas of Appendix B as checked inference
// functions: each takes its premises and either returns the conclusion or
// an error explaining why the premises do not match the schema. The
// functions are pure — the Engine wires them into belief stores and proofs.

// Axiom and rule names cited in proof steps.
const (
	RuleAssumption        = "assumption"
	RuleReceive           = "receive"
	RuleA1ModusBelief     = "A1 (belief modus ponens)"
	RuleA7Interval        = "A7 (time interval)"
	RuleA8Monotone        = "A8 (monotonicity)"
	RuleA9Reduce          = "A9 (reduction)"
	RuleA10Originate      = "A10 (originator identification)"
	RuleA12ReadSigned     = "A12 (read signed)"
	RuleA15SaidPart       = "A15 (said component)"
	RuleA17SaidSigned     = "A17 (said signed content)"
	RuleA19SaidSays       = "A19 (said to says)"
	RuleA20SaysSaid       = "A20 (says to said)"
	RuleA21Fresh          = "A21 (freshness)"
	RuleA22Jurisdiction   = "A22 (jurisdiction)"
	RuleA23JurisdictionCP = "A23 (compound jurisdiction)"
	RuleA24GroupJuris     = "A24–A28 (group-membership jurisdiction)"
	RuleA29GroupJurisCP   = "A29–A33 (compound group-membership jurisdiction)"
	RuleA34GroupSays      = "A34 (member says)"
	RuleA35GroupSaysKey   = "A35 (key-bound member says)"
	RuleA36GroupSaysCP    = "A36 (compound member says)"
	RuleA37GroupSaysCPKey = "A37 (key-bound compound member says)"
	RuleA38Threshold      = "A38 (threshold member says)"
	RuleInstantiate       = "schema instantiation"
	RuleRevocation        = "revocation (believe-until-revoked)"
	// RuleCachedDerivation marks a belief replayed from the verified-
	// certificate cache: the full A10/A22/A9 chain was recorded when the
	// certificate was first verified under the same belief snapshot.
	RuleCachedDerivation = "cached (verified-certificate cache)"
	// RuleResidualLink marks a believed group link re-recorded into a
	// residual checklist when the residue was compiled; its premise is
	// the base-proof step that originally concluded the link.
	RuleResidualLink = "residual (recorded group link)"
	// RuleResidualCompile marks the summary step that closes a residual
	// checklist's recorded segment: the invariant portion of one
	// requesting group's derivation, compiled once per snapshot.
	RuleResidualCompile = "residual (compiled checklist)"
	// RuleResidualLeaf marks a request-variable leaf check discharged on
	// the residual fast path (identity validity, membership validity,
	// signed utterance); the heavyweight chain behind each leaf was
	// recorded when the certificate was first verified under the same
	// snapshot.
	RuleResidualLeaf = "residual (leaf check)"
	// Delegation & relationship subsystem rules (delegation.go).
	RuleDelegationCert    = "delegation (certificate link)"
	RuleDelegationCompose = "delegation (chain composition)"
	RuleDelegationMember  = "delegation (derived membership)"
	RuleGraphEdge         = "group graph (certificate edge)"
	// RuleJournaled marks a certificate's conclusion reinstalled from a
	// write-ahead-log record (recovery or replication): a trust-base leaf
	// whose grounds are the CRC-protected record and the verification the
	// certificate passed when it was first accepted. Its note cites the
	// record's sequence number; Engine.Install concludes from it exactly
	// as from a live jurisdiction step.
	RuleJournaled = "journaled (write-ahead-log record)"
)

// Sentinel errors callers can match on.
var (
	// ErrSchemaMismatch indicates premises do not fit the axiom shape.
	ErrSchemaMismatch = errors.New("premises do not match axiom schema")
	// ErrTimeMismatch indicates the temporal side conditions failed.
	ErrTimeMismatch = errors.New("temporal side condition failed")
	// ErrThresholdNotMet indicates fewer than m valid co-signers.
	ErrThresholdNotMet = errors.New("threshold not met")
	// ErrDepthExhausted indicates a delegation chain extended beyond its
	// delegable depth bound.
	ErrDepthExhausted = errors.New("delegation depth exhausted")
)

// A1 is belief modus ponens: P believes φ ∧ P believes (φ ⊃ ψ) ⊢ P believes
// ψ. (In the engine beliefs are implicit; this pure form operates on the
// wrapped formulas for tests and the model checker.)
func A1(bphi, bimp Believes) (Believes, error) {
	imp, ok := bimp.F.(Implies)
	if !ok {
		return Believes{}, fmt.Errorf("A1: second premise is not an implication belief: %w", ErrSchemaMismatch)
	}
	if !SubjectEqual(bphi.Who, bimp.Who) || bphi.T != bimp.T {
		return Believes{}, fmt.Errorf("A1: subjects/times differ: %w", ErrSchemaMismatch)
	}
	if !FormulaEqual(bphi.F, imp.L) {
		return Believes{}, fmt.Errorf("A1: antecedent mismatch: %w", ErrSchemaMismatch)
	}
	return Believes{Who: bphi.Who, T: bphi.T, F: imp.R}, nil
}

// A7Point instantiates an AllOf-qualified formula at a single covered time:
// from "W op_[t1,t2] ..." conclude "W op_t ..." for t1 ≤ t ≤ t2. It applies
// to says/said/received/controls/believes and ⇒ formulas — the paper's A7
// family ("we also include analogous axioms for controls, received, says,
// said, has, and ⇒").
func A7Point(f Formula, t clock.Time) (Formula, error) {
	set := func(ts TimeSpec) (TimeSpec, error) {
		if ts.Kind != AllOf || !ts.Interval.Contains(t) {
			return TimeSpec{}, fmt.Errorf("A7: %s does not cover %s: %w", ts, t, ErrTimeMismatch)
		}
		return TimeSpec{Kind: AtTime, Interval: clock.Point(t), Observer: ts.Observer}, nil
	}
	switch v := f.(type) {
	case Believes:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return Believes{Who: v.Who, T: ts, F: v.F}, nil
	case Controls:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return Controls{Who: v.Who, T: ts, F: v.F}, nil
	case Says:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return Says{Who: v.Who, T: ts, X: v.X}, nil
	case Said:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return Said{Who: v.Who, T: ts, X: v.X}, nil
	case Received:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return Received{Who: v.Who, T: ts, X: v.X}, nil
	case KeySpeaksFor:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return KeySpeaksFor{K: v.K, T: ts, Who: v.Who}, nil
	case MemberOf:
		ts, err := set(v.T)
		if err != nil {
			return nil, err
		}
		return MemberOf{Who: v.Who, T: ts, G: v.G}, nil
	default:
		return nil, fmt.Errorf("A7: unsupported formula %T: %w", f, ErrSchemaMismatch)
	}
}

// A8Received is the monotonicity axiom A8a: P received_t X ∧ t' ≥ t ⊢
// P received_t' X.
func A8Received(r Received, later clock.Time) (Received, error) {
	if r.T.Kind != AtTime {
		return Received{}, fmt.Errorf("A8a: point-time premise required: %w", ErrSchemaMismatch)
	}
	if later < r.T.Time() {
		return Received{}, fmt.Errorf("A8a: %s earlier than %s: %w", later, r.T.Time(), ErrTimeMismatch)
	}
	return Received{Who: r.Who, T: At(later).On(r.T.Observer), X: r.X}, nil
}

// A8Said is the monotonicity axiom A8b: P said_t X ∧ t' ≥ t ⊢ P said_t' X.
func A8Said(s Said, later clock.Time) (Said, error) {
	if s.T.Kind != AtTime {
		return Said{}, fmt.Errorf("A8b: point-time premise required: %w", ErrSchemaMismatch)
	}
	if later < s.T.Time() {
		return Said{}, fmt.Errorf("A8b: %s earlier than %s: %w", later, s.T.Time(), ErrTimeMismatch)
	}
	return Said{Who: s.Who, T: At(later).On(s.T.Observer), X: s.X}, nil
}

// A8Fresh is A8d: fresh_{t,P} X ∧ t' ≤ t ⊢ fresh_{t',P} X.
func A8Fresh(f Fresh, earlier clock.Time) (Fresh, error) {
	if f.T.Kind != AtTime {
		return Fresh{}, fmt.Errorf("A8d: point-time premise required: %w", ErrSchemaMismatch)
	}
	if earlier > f.T.Time() {
		return Fresh{}, fmt.Errorf("A8d: %s later than %s: %w", earlier, f.T.Time(), ErrTimeMismatch)
	}
	return Fresh{T: At(earlier), Who: f.Who, X: f.X}, nil
}

// A9Reduce implements the reduction axiom: (φ at_P t1) at_P t2 ∧ t2 ≥ t1 ⊢
// φ at_P t2, where φ is itself an at-formula or a says/said/received
// formula. The paper uses it (step 8→9 / 20→21) to strip the localization
// introduced by jurisdiction; stripOK lists the admissible inner shapes.
func A9Reduce(outer AtFormula) (Formula, error) {
	inner, ok := outer.F.(AtFormula)
	if !ok {
		// Direct use in the protocol: (φ at_P ⟨t*,t⟩) with φ a
		// says-class formula reduces to φ held at the outer time.
		if !saysClass(outer.F) {
			return nil, fmt.Errorf("A9: inner formula %T not reducible: %w", outer.F, ErrSchemaMismatch)
		}
		return outer.F, nil
	}
	if inner.P != outer.P {
		return nil, fmt.Errorf("A9: localization principals differ (%s vs %s): %w", inner.P, outer.P, ErrSchemaMismatch)
	}
	if !saysClass(inner.F) {
		if _, isAt := inner.F.(AtFormula); !isAt {
			return nil, fmt.Errorf("A9: inner formula %T not reducible: %w", inner.F, ErrSchemaMismatch)
		}
	}
	if outer.T.Time() < inner.T.Time() {
		return nil, fmt.Errorf("A9: t2 %s < t1 %s: %w", outer.T.Time(), inner.T.Time(), ErrTimeMismatch)
	}
	return AtFormula{F: inner.F, P: outer.P, T: outer.T}, nil
}

func saysClass(f Formula) bool {
	switch f.(type) {
	case Says, Said, Received:
		return true
	default:
		return false
	}
}

// A10Originator implements originator identification (all three variants a,
// b, c — the subject of the key decides which): from "K ⇒_{t,P} W" and
// "P received_t X_{K^-1}" conclude "W said_{t,P} X" and "W said_{t,P}
// X_{K^-1}". For a threshold key (variant c) the conclusion names the plain
// compound principal, exactly as the axiom states.
func A10Originator(key KeySpeaksFor, rcv Received) (said Said, saidSigned Said, err error) {
	sig, ok := rcv.X.(Signed)
	if !ok {
		return Said{}, Said{}, fmt.Errorf("A10: received message is not signed: %w", ErrSchemaMismatch)
	}
	if sig.K != key.K {
		return Said{}, Said{}, fmt.Errorf("A10: signature key %s does not match certificate key %s: %w", sig.K, key.K, ErrSchemaMismatch)
	}
	t := rcv.T.Time()
	if !key.T.Covers(t) && key.T.Kind != SomeOf {
		return Said{}, Said{}, fmt.Errorf("A10: key validity %s does not cover receipt time %s: %w", key.T, t, ErrTimeMismatch)
	}
	receiver := ""
	if p, ok := rcv.Who.(Principal); ok {
		receiver = p.Name
	}
	who := key.Who
	// Variant c: the conclusion is about CP, not CP(m,n).
	if cp, ok := who.(CompoundPrincipal); ok && cp.IsThreshold() {
		who = CP(cp.Members()...)
	}
	ts := At(t).On(receiver)
	return Said{Who: who, T: ts, X: sig.X},
		Said{Who: who, T: ts, X: sig}, nil
}

// A12ReadSigned: P received_t X_{K^-1} ⊢ P received_t X. Principals can
// read signed messages with or without the verification key.
func A12ReadSigned(r Received) (Received, error) {
	sig, ok := r.X.(Signed)
	if !ok {
		return Received{}, fmt.Errorf("A12: message is not signed: %w", ErrSchemaMismatch)
	}
	return Received{Who: r.Who, T: r.T, X: sig.X}, nil
}

// A11ReadEncrypted: P received_t {X}_K ∧ P has_t K^-1 ⊢ P received_t X.
func A11ReadEncrypted(r Received, h Has) (Received, error) {
	enc, ok := r.X.(Encrypted)
	if !ok {
		return Received{}, fmt.Errorf("A11: message is not encrypted: %w", ErrSchemaMismatch)
	}
	if !SubjectEqual(r.Who, h.Who) {
		return Received{}, fmt.Errorf("A11: receiver does not hold the key: %w", ErrSchemaMismatch)
	}
	if enc.K != h.K {
		return Received{}, fmt.Errorf("A11: key %s cannot open {·}%s: %w", h.K, enc.K, ErrSchemaMismatch)
	}
	return Received{Who: r.Who, T: r.T, X: enc.X}, nil
}

// A15SaidComponent: P said_t (X1,...,Xn) ⊢ P said_t Xi.
func A15SaidComponent(s Said, i int) (Said, error) {
	tup, ok := s.X.(Tuple)
	if !ok {
		return Said{}, fmt.Errorf("A15: message is not a tuple: %w", ErrSchemaMismatch)
	}
	if i < 0 || i >= len(tup.Items) {
		return Said{}, fmt.Errorf("A15: index %d out of range: %w", i, ErrSchemaMismatch)
	}
	return Said{Who: s.Who, T: s.T, X: tup.Items[i]}, nil
}

// A17SaidSigned: P said_t X_{K^-1} ⊢ P said_t X — principals are
// responsible for the contents of signed messages they send.
func A17SaidSigned(s Said) (Said, error) {
	sig, ok := s.X.(Signed)
	if !ok {
		return Said{}, fmt.Errorf("A17: message is not signed: %w", ErrSchemaMismatch)
	}
	return Said{Who: s.Who, T: s.T, X: sig.X}, nil
}

// A20SaysToSaid: P says_t X ⊢ P said_t X.
func A20SaysToSaid(s Says) Said {
	return Said{Who: s.Who, T: s.T, X: s.X}
}

// A21Fresh: fresh_t X ⊢ fresh_t F(X, Y) — freshness of a component makes
// the whole composite fresh (the function must actually depend on X, which
// holds for tuples containing X).
func A21Fresh(f Fresh, composite Message) (Fresh, error) {
	if !ContainsSubmessage(composite, f.X, nil) {
		return Fresh{}, fmt.Errorf("A21: composite does not contain the fresh component: %w", ErrSchemaMismatch)
	}
	return Fresh{T: f.T, Who: f.Who, X: composite}, nil
}

// A22Jurisdiction: P controls_t φ ∧ P says_t φ ⊢ φ at_P t. The same
// function serves A23 for compound principals (the subject decides).
func A22Jurisdiction(c Controls, s Says) (AtFormula, error) {
	if !SubjectEqual(c.Who, s.Who) {
		return AtFormula{}, fmt.Errorf("A22: controller %s ≠ speaker %s: %w", c.Who, s.Who, ErrSchemaMismatch)
	}
	body, ok := s.X.(MsgFormula)
	if !ok {
		return AtFormula{}, fmt.Errorf("A22: spoken message is not a formula: %w", ErrSchemaMismatch)
	}
	if !FormulaEqual(c.F, body.F) {
		return AtFormula{}, fmt.Errorf("A22: controlled formula differs from spoken formula: %w", ErrSchemaMismatch)
	}
	// Temporal side condition: the jurisdiction interval must cover the
	// utterance time (or be the same point).
	if c.T.Kind == AtTime && s.T.Kind == AtTime && c.T.Time() != s.T.Time() {
		return AtFormula{}, fmt.Errorf("A22: jurisdiction at %s but utterance at %s: %w", c.T, s.T, ErrTimeMismatch)
	}
	if c.T.Kind == AllOf && !c.T.Interval.Contains(s.T.Time()) {
		return AtFormula{}, fmt.Errorf("A22: jurisdiction %s does not cover %s: %w", c.T, s.T, ErrTimeMismatch)
	}
	// The conclusion is localized at the principal whose clock measures
	// the jurisdiction interval (the ",P" subscript of statements 13/19),
	// falling back to the controller itself for unqualified jurisdiction.
	locale := c.T.Observer
	if locale == "" {
		locale = c.Who.String()
	}
	return AtFormula{F: body.F, P: locale, T: s.T}, nil
}

// A34MemberSays: Q ⇒_t G ∧ Q says_t X ⊢ G says_t X.
func A34MemberSays(m MemberOf, s Says) (GroupSays, error) {
	q, ok := m.Who.(Principal)
	if !ok || q.IsBound() {
		return GroupSays{}, fmt.Errorf("A34: membership subject must be an unbound principal: %w", ErrSchemaMismatch)
	}
	sq, ok := s.Who.(Principal)
	if !ok || sq.Unbound() != q {
		return GroupSays{}, fmt.Errorf("A34: speaker %s is not member %s: %w", s.Who, q, ErrSchemaMismatch)
	}
	if err := membershipCovers(m.T, s.T.Time()); err != nil {
		return GroupSays{}, err
	}
	return GroupSays{G: m.G, T: s.T, X: s.X}, nil
}

// A35MemberSaysKeyBound: Q|K ⇒_t G ∧ K ⇒_{t,P} Q ∧ Q says_t X_{K^-1} ⊢
// G says_t X — selective distribution: the request must be signed with the
// bound key.
func A35MemberSaysKeyBound(m MemberOf, key KeySpeaksFor, s Says) (GroupSays, error) {
	q, ok := m.Who.(Principal)
	if !ok || !q.IsBound() {
		return GroupSays{}, fmt.Errorf("A35: membership subject must be a key-bound principal: %w", ErrSchemaMismatch)
	}
	kq, ok := key.Who.(Principal)
	if !ok || kq.Unbound().Name != q.Name {
		return GroupSays{}, fmt.Errorf("A35: key certificate subject %s ≠ member %s: %w", key.Who, q.Name, ErrSchemaMismatch)
	}
	if key.K != q.Key {
		return GroupSays{}, fmt.Errorf("A35: certificate key %s ≠ bound key %s: %w", key.K, q.Key, ErrSchemaMismatch)
	}
	sig, ok := s.X.(Signed)
	if !ok || sig.K != q.Key {
		return GroupSays{}, fmt.Errorf("A35: request not signed with bound key %s: %w", q.Key, ErrSchemaMismatch)
	}
	sq, ok := s.Who.(Principal)
	if !ok || sq.Name != q.Name {
		return GroupSays{}, fmt.Errorf("A35: speaker %s ≠ member %s: %w", s.Who, q.Name, ErrSchemaMismatch)
	}
	if err := membershipCovers(m.T, s.T.Time()); err != nil {
		return GroupSays{}, err
	}
	// Unwrap the idealized utterance “Q says_t X” to X, as in A38.
	content := requestContent(sig.X, q.Unbound())
	if content == nil {
		return GroupSays{}, fmt.Errorf("A35: utterance names a different speaker: %w", ErrSchemaMismatch)
	}
	return GroupSays{G: m.G, T: s.T, X: content}, nil
}

// A36CompoundSays: CP ⇒_t G ∧ CP says_t X ⊢ G says_t X.
func A36CompoundSays(m MemberOf, s Says) (GroupSays, error) {
	cp, ok := m.Who.(CompoundPrincipal)
	if !ok || cp.IsThreshold() || cp.Key() != "" {
		return GroupSays{}, fmt.Errorf("A36: membership subject must be a plain compound principal: %w", ErrSchemaMismatch)
	}
	scp, ok := s.Who.(CompoundPrincipal)
	if !ok || !cp.SameMembers(scp) {
		return GroupSays{}, fmt.Errorf("A36: speaker %s ≠ member %s: %w", s.Who, m.Who, ErrSchemaMismatch)
	}
	if err := membershipCovers(m.T, s.T.Time()); err != nil {
		return GroupSays{}, err
	}
	return GroupSays{G: m.G, T: s.T, X: s.X}, nil
}

// A37CompoundSaysKeyBound: CP|K ⇒_t G ∧ K ⇒_{t,P} CP ∧ CP says_t X_{K^-1}
// ⊢ G says_t X.
func A37CompoundSaysKeyBound(m MemberOf, key KeySpeaksFor, s Says) (GroupSays, error) {
	cp, ok := m.Who.(CompoundPrincipal)
	if !ok || cp.Key() == "" {
		return GroupSays{}, fmt.Errorf("A37: membership subject must be a key-bound compound principal: %w", ErrSchemaMismatch)
	}
	kcp, ok := key.Who.(CompoundPrincipal)
	if !ok || !cp.SameMembers(kcp) {
		return GroupSays{}, fmt.Errorf("A37: key certificate subject mismatch: %w", ErrSchemaMismatch)
	}
	if key.K != cp.Key() {
		return GroupSays{}, fmt.Errorf("A37: certificate key %s ≠ bound key %s: %w", key.K, cp.Key(), ErrSchemaMismatch)
	}
	sig, ok := s.X.(Signed)
	if !ok || sig.K != cp.Key() {
		return GroupSays{}, fmt.Errorf("A37: request not signed with bound key %s: %w", cp.Key(), ErrSchemaMismatch)
	}
	scp, ok := s.Who.(CompoundPrincipal)
	if !ok || !cp.SameMembers(scp) {
		return GroupSays{}, fmt.Errorf("A37: speaker mismatch: %w", ErrSchemaMismatch)
	}
	if err := membershipCovers(m.T, s.T.Time()); err != nil {
		return GroupSays{}, err
	}
	return GroupSays{G: m.G, T: s.T, X: sig.X}, nil
}

// A38Threshold: CP(m,n) ⇒_t G ∧ P1 says_t X_{K1^-1} ∧ ... ∧ Pm says_t
// X_{Km^-1} ⊢ G says_t X. Each signer must be a distinct member of CP
// signing the same X with exactly the key bound to it in the certificate;
// at least m distinct valid signers are required.
func A38Threshold(m MemberOf, signers []Says, at clock.Time) (GroupSays, error) {
	cp, ok := m.Who.(CompoundPrincipal)
	if !ok || !cp.IsThreshold() {
		return GroupSays{}, fmt.Errorf("A38: membership subject must be a threshold compound principal: %w", ErrSchemaMismatch)
	}
	if err := membershipCovers(m.T, at); err != nil {
		return GroupSays{}, err
	}
	var content Message
	counted := make(map[string]bool, len(signers))
	for _, s := range signers {
		p, ok := s.Who.(Principal)
		if !ok {
			continue
		}
		boundKey, bound := cp.MemberKey(p.Name)
		if !cp.Contains(p.Name) {
			continue
		}
		sig, ok := s.X.(Signed)
		if !ok {
			continue
		}
		if bound && sig.K != boundKey {
			continue // selective distribution: wrong key, does not count
		}
		// Each co-signer signs its own utterance "Pi says_ti X" of the
		// common request X (message 1-4); unwrap to X for comparison.
		signed := requestContent(sig.X, p)
		if signed == nil {
			continue // utterance claims a different speaker
		}
		if content == nil {
			content = signed
		} else if !MessageEqual(content, signed) {
			continue // co-signers must sign the same request
		}
		counted[p.Name] = true
	}
	if len(counted) < cp.Threshold() {
		return GroupSays{}, fmt.Errorf("A38: %d valid signer(s), need %d: %w",
			len(counted), cp.Threshold(), ErrThresholdNotMet)
	}
	return GroupSays{G: m.G, T: At(at), X: content}, nil
}

// GroupInherit is the privilege-inheritance axiom (the extension of
// Section 4.1): G1 ⇒_t G2 ∧ G1 says_t X ⊃ G2 says_t X.
func GroupInherit(link GroupSpeaksFor, gs GroupSays) (GroupSays, error) {
	if link.Sub != gs.G {
		return GroupSays{}, fmt.Errorf("inherit: link subject %s ≠ speaker %s: %w",
			link.Sub.Name, gs.G.Name, ErrSchemaMismatch)
	}
	if err := membershipCovers(link.T, gs.T.Time()); err != nil {
		return GroupSays{}, err
	}
	return GroupSays{G: link.Sup, T: gs.T, X: gs.X}, nil
}

// requestContent extracts the common request X from a co-signer's signed
// payload: either the bare message X, or the idealized utterance
// "signer says_t X". A wrapper naming a different speaker returns nil.
func requestContent(x Message, signer Principal) Message {
	mf, ok := x.(MsgFormula)
	if !ok {
		return x
	}
	says, ok := mf.F.(Says)
	if !ok {
		return x
	}
	sp, ok := says.Who.(Principal)
	if !ok || sp.Name != signer.Name {
		return nil
	}
	return says.X
}

func membershipCovers(ts TimeSpec, t clock.Time) error {
	if ts.Kind == SomeOf {
		return fmt.Errorf("membership with ⟨⟩ qualification gives no per-time guarantee: %w", ErrTimeMismatch)
	}
	if !ts.Covers(t) {
		return fmt.Errorf("membership valid %s does not cover %s: %w", ts, t, ErrTimeMismatch)
	}
	return nil
}
