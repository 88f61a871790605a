package logic

import (
	"fmt"

	"jointadmin/internal/clock"
)

// Engine is the derivation engine of one relying principal (typically the
// coalition server P of Figure 1). Every conclusion it stores is implicitly
// wrapped in "owner believes_t ..." exactly as the statement lists of
// Section 4.3 / Appendix E are; the proof log records the axiom chain.
type Engine struct {
	owner string
	clk   *clock.Clock
	store *BeliefStore
	proof *Proof
}

// NewEngine returns an engine for the named relying principal with the
// given local clock.
func NewEngine(owner string, clk *clock.Clock) *Engine {
	return &Engine{
		owner: owner,
		clk:   clk,
		store: NewBeliefStore(),
		proof: NewProof(owner),
	}
}

// Owner returns the relying principal's name.
func (e *Engine) Owner() string { return e.owner }

// Clock returns the engine's local clock.
func (e *Engine) Clock() *clock.Clock { return e.clk }

// Store exposes the belief store (read access for callers and tests).
func (e *Engine) Store() *BeliefStore { return e.store }

// Proof exposes the derivation log.
func (e *Engine) Proof() *Proof { return e.proof }

// Fork returns an independent copy of the engine: same owner and clock,
// cloned belief store and proof. Derivations on the fork never touch the
// original — a mutation forks the published base to derive the next
// snapshot, and a request whose certificates are not yet verified forks it
// to derive them (the per-request counterpart of the Section 4.3 statement
// lists). Forking a sealed engine is O(1) regardless of how many beliefs
// and proof steps the base holds: the fork shares the immutable base
// layers and starts an empty overlay/suffix, so it is an ordinary
// allocation, not pooled.
//
// A fork has exactly one owner, the goroutine that took it: nothing in
// the engine is locked, so the fork is never shared until it is sealed.
func (e *Engine) Fork() *Engine {
	return &Engine{
		owner: e.owner,
		clk:   e.clk,
		store: e.store.Clone(),
		proof: e.proof.Clone(),
	}
}

// Seal freezes the engine's current beliefs and proof into immutable base
// layers shared by every subsequent Fork, making Fork O(1). The paper's
// reading (and NAL's): the principal's base theory is monotone — per-query
// reasoning extends it but never mutates it.
//
// That reading is the engine's ownership rule, and it replaces any lock:
// a sealed engine is read-only and may be shared by any number of
// goroutines, which only read it or Fork it; an unsealed engine or a fork
// has exactly one owner; and no one appends to a proof after it has
// reached a Decision or an audit entry. Until its owner shares a sealed
// engine it may keep deriving; later derivations start a fresh overlay
// and must be sealed again before the engine is shared.
func (e *Engine) Seal() *Engine {
	e.store.Seal()
	e.proof.Seal()
	return e
}

// Sealed reports whether the engine's store and proof are fully sealed
// (Fork is O(1)).
func (e *Engine) Sealed() bool {
	return e.store.Sealed() && e.proof.Sealed()
}

// Replay installs a belief previously derived from a verified certificate
// (the verified-certificate cache): the full derivation chain was recorded
// when the certificate was first verified under the same belief snapshot,
// so the replayed step cites the cache instead of repeating it.
func (e *Engine) Replay(f Formula, note string) int {
	now := e.clk.Now()
	id := e.proof.Append(RuleCachedDerivation, nil, f, now, note)
	e.store.Add(f, now, id)
	return id
}

// Assume installs an initial belief (the "Initial Beliefs" of Appendix E)
// and returns its proof-step id.
func (e *Engine) Assume(f Formula, note string) int {
	now := e.clk.Now()
	id := e.proof.Append(RuleAssumption, nil, f, now, note)
	e.store.Add(f, now, id)
	return id
}

// Receive records receipt of a message at the current local time and
// returns the Received fact and its step id.
func (e *Engine) Receive(x Message, note string) (Received, int) {
	now := e.clk.Now()
	r := Received{Who: P(e.owner), T: At(now), X: x}
	id := e.proof.Append(RuleReceive, nil, r, now, note)
	e.store.Add(r, now, id)
	return r, id
}

// IdentifyOriginator applies A10 to a received signed message using a
// believed key certificate for the expected signer. It returns the Said
// conclusion (about the signed content, i.e. the first conjunct of A10).
func (e *Engine) IdentifyOriginator(key KeySpeaksFor, rcv Received, rcvStep int) (Said, int, error) {
	keyEntry, ok := e.store.Holds(key)
	if !ok {
		return Said{}, 0, fmt.Errorf("originator identification: key belief %s not held", key)
	}
	said, saidSigned, err := A10Originator(key, rcv)
	if err != nil {
		return Said{}, 0, err
	}
	now := e.clk.Now()
	id := e.proof.Append(RuleA10Originate, []int{keyEntry.Step, rcvStep}, saidSigned, now, "")
	e.store.Add(saidSigned, now, id)
	id2 := e.proof.Append(RuleA10Originate, []int{keyEntry.Step, rcvStep}, said, now, "")
	e.store.Add(said, now, id2)
	return said, id2, nil
}

// certificateBody unwraps an idealized certificate message down to the
// issuer's says-formula: ⟦CA says_tCA φ⟧_K ⊢ CA says_tCA φ.
func certificateBody(x Message) (Says, error) {
	mf, ok := x.(MsgFormula)
	if !ok {
		return Says{}, fmt.Errorf("certificate body is not a formula message: %w", ErrSchemaMismatch)
	}
	says, ok := mf.F.(Says)
	if !ok {
		return Says{}, fmt.Errorf("certificate body is not a says-formula: %w", ErrSchemaMismatch)
	}
	return says, nil
}

// AcceptCertificateAccuracy is the composite derivation of statements
// 12→14 (and 18→21): from "issuer said ⟦issuer says_tI φ⟧" and the
// issuer's says-time jurisdiction, conclude "issuer says_tI φ". The chain
// recorded is A17 (said signed content), A19 (said→says), schema
// instantiation, A22/A23 (jurisdiction) and A9 (reduction).
func (e *Engine) AcceptCertificateAccuracy(said Said, saidStep int) (Says, int, error) {
	now := e.clk.Now()
	sig, ok := said.X.(Signed)
	if !ok {
		return Says{}, 0, fmt.Errorf("accuracy: said message is not signed: %w", ErrSchemaMismatch)
	}
	inner, err := certificateBody(sig.X)
	if err != nil {
		return Says{}, 0, err
	}
	if !SubjectEqual(inner.Who, said.Who) {
		return Says{}, 0, fmt.Errorf("accuracy: certificate names issuer %s but signer is %s: %w",
			inner.Who, said.Who, ErrSchemaMismatch)
	}

	// A17: issuer said the unsigned content.
	saidPlain, err := A17SaidSigned(said)
	if err != nil {
		return Says{}, 0, err
	}
	s1 := e.proof.Append(RuleA17SaidSigned, []int{saidStep}, saidPlain, now, "")

	// A19: promote said to says at the receipt time.
	saysOuter := Says{Who: said.Who, T: saidPlain.T, X: saidPlain.X}
	s2 := e.proof.Append(RuleA19SaidSays, []int{s1}, saysOuter, now, "")

	// Jurisdiction over the accuracy time of the issuer's statements.
	sj, ok := e.store.SaysTimeJurisdictionFor(said.Who.String())
	if !ok {
		return Says{}, 0, fmt.Errorf("accuracy: no says-time jurisdiction held for %s", said.Who)
	}
	ctrl, err := sj.Instantiate(now, saysOuter)
	if err != nil {
		return Says{}, 0, err
	}
	s3 := e.proof.Append(RuleInstantiate, nil, ctrl, now,
		"instantiate says-time jurisdiction schema")

	// A22/A23: the inner says-formula holds, localized at this engine.
	wrapped := Says{Who: saysOuter.Who, T: saysOuter.T, X: AsMessage(inner)}
	located, err := A22Jurisdiction(Controls{Who: ctrl.Who, T: ctrl.T, F: inner}, wrapped)
	if err != nil {
		return Says{}, 0, err
	}
	rule := RuleA22Jurisdiction
	if _, isCP := said.Who.(CompoundPrincipal); isCP {
		rule = RuleA23JurisdictionCP
	}
	s4 := e.proof.Append(rule, []int{s2, s3}, located, now, "")

	// A9: strip the localization.
	reduced, err := A9Reduce(located)
	if err != nil {
		return Says{}, 0, err
	}
	s5 := e.proof.Append(RuleA9Reduce, []int{s4}, reduced, now, "")
	e.store.Add(reduced, now, s5)
	out, ok := reduced.(Says)
	if !ok {
		return Says{}, 0, fmt.Errorf("accuracy: reduction produced %T, want Says", reduced)
	}
	return out, s5, nil
}

// AcceptKeyCertificate completes Step 1 of the authorization protocol for
// one identity certificate: from "CA says_tCA (K ⇒ [tb,te],CA Q)" and the
// CA's key jurisdiction, conclude "K ⇒ [tb,te],CA Q" (statement 16).
func (e *Engine) AcceptKeyCertificate(says Says, saysStep int) (KeySpeaksFor, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return KeySpeaksFor{}, 0, fmt.Errorf("key certificate: body is not a formula: %w", ErrSchemaMismatch)
	}
	ksf, ok := body.F.(KeySpeaksFor)
	if !ok {
		return KeySpeaksFor{}, 0, fmt.Errorf("key certificate: body is not K ⇒ Q: %w", ErrSchemaMismatch)
	}
	ca, ok := says.Who.(Principal)
	if !ok {
		return KeySpeaksFor{}, 0, fmt.Errorf("key certificate: issuer is not a simple CA: %w", ErrSchemaMismatch)
	}
	kj, ok := e.store.KeyJurisdictionFor(ca.Name)
	if !ok {
		return KeySpeaksFor{}, 0, fmt.Errorf("key certificate: no key jurisdiction held for %s", ca.Name)
	}
	if e.store.KeyRevoked(ksf.K, now) {
		return KeySpeaksFor{}, 0, fmt.Errorf("key certificate: key %s revoked as of %s", ksf.K, now)
	}
	ctrl := kj.Instantiate(says.T, ksf)
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now,
		"instantiate key-jurisdiction schema (statement 15)")
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return KeySpeaksFor{}, 0, err
	}
	s2 := e.proof.Append(RuleA22Jurisdiction, []int{saysStep, s1}, located, now, "")
	// A3-style acceptance: the engine believes the bare formula.
	s3 := e.proof.Append("A3 (localized belief)", []int{s2}, ksf, now, "statement 16")
	e.store.Add(ksf, now, s3)
	return ksf, s3, nil
}

// AcceptMembershipCertificate completes Step 2 for an attribute or
// threshold attribute certificate: from "AA says_tAA (W ⇒ [tb,te],AA G)"
// and AA's membership jurisdiction, conclude "W ⇒ [tb,te],AA G" (statement
// 22). The conclusion is refused if the membership is already revoked as of
// the current time (believe-until-revoked).
func (e *Engine) AcceptMembershipCertificate(says Says, saysStep int) (MemberOf, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return MemberOf{}, 0, fmt.Errorf("attribute certificate: body is not a formula: %w", ErrSchemaMismatch)
	}
	mem, ok := body.F.(MemberOf)
	if !ok {
		return MemberOf{}, 0, fmt.Errorf("attribute certificate: body is not W ⇒ G: %w", ErrSchemaMismatch)
	}
	mj, ok := e.store.MembershipJurisdictionFor(says.Who.String())
	if !ok {
		return MemberOf{}, 0, fmt.Errorf("attribute certificate: no membership jurisdiction held for %s", says.Who)
	}
	if e.store.Revoked(mem.Who, mem.G, now) {
		return MemberOf{}, 0, fmt.Errorf("attribute certificate: membership of %s in %s revoked as of %s",
			mem.Who, mem.G.Name, now)
	}
	ctrl := mj.Instantiate(says.T, mem)
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now,
		"instantiate membership-jurisdiction schema")
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return MemberOf{}, 0, err
	}
	rule := RuleA24GroupJuris
	if _, isCP := says.Who.(CompoundPrincipal); isCP {
		rule = RuleA29GroupJurisCP
	}
	s2 := e.proof.Append(rule, []int{saysStep, s1}, located, now, "")
	s3 := e.proof.Append("A3 (localized belief)", []int{s2}, mem, now, "statement 22")
	e.store.Add(mem, now, s3)
	return mem, s3, nil
}

// AcceptGroupLinkCertificate accepts a privilege-inheritance certificate:
// from "AA says (G1 ⇒ G2)" and AA's membership jurisdiction (which covers
// group relations generally), conclude "G1 ⇒ G2".
func (e *Engine) AcceptGroupLinkCertificate(says Says, saysStep int) (GroupSpeaksFor, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return GroupSpeaksFor{}, 0, fmt.Errorf("group link: body is not a formula: %w", ErrSchemaMismatch)
	}
	link, ok := body.F.(GroupSpeaksFor)
	if !ok {
		return GroupSpeaksFor{}, 0, fmt.Errorf("group link: body is not G1 ⇒ G2: %w", ErrSchemaMismatch)
	}
	mj, ok := e.store.MembershipJurisdictionFor(says.Who.String())
	if !ok {
		return GroupSpeaksFor{}, 0, fmt.Errorf("group link: no membership jurisdiction held for %s", says.Who)
	}
	ctrl := Controls{Who: mj.Authority, T: says.T, F: link}
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now,
		"instantiate membership-jurisdiction schema over group link")
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return GroupSpeaksFor{}, 0, err
	}
	s2 := e.proof.Append(RuleA24GroupJuris, []int{saysStep, s1}, located, now, "")
	_, s3, err := e.Install(link, []int{s2}, now)
	return link, s3, err
}

// AcceptDelegationCertificate accepts a delegation-link certificate: from
// "AA says (Q|K delegated^d{π}[delegator] for G)" and AA's membership
// jurisdiction (delegations are membership-granting statements), conclude
// the root-anchored composed delegation. A root grant (empty path) is
// believed directly; a chain link is composed with the believed chain of
// its delegator — depth decrements, permissions and validity intersect —
// and acceptance is refused when the delegator's chain is missing, the
// delegator's depth is exhausted, or the subject is already revoked.
func (e *Engine) AcceptDelegationCertificate(says Says, saysStep int) (Delegates, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return Delegates{}, 0, fmt.Errorf("delegation: body is not a formula: %w", ErrSchemaMismatch)
	}
	link, ok := body.F.(Delegates)
	if !ok {
		return Delegates{}, 0, fmt.Errorf("delegation: body is not a delegation link: %w", ErrSchemaMismatch)
	}
	mj, ok := e.store.MembershipJurisdictionFor(says.Who.String())
	if !ok {
		return Delegates{}, 0, fmt.Errorf("delegation: no membership jurisdiction held for %s", says.Who)
	}
	if e.store.Revoked(link.To, link.G, now) {
		return Delegates{}, 0, fmt.Errorf("delegation: subject %s revoked in %s as of %s",
			link.To, link.G.Name, now)
	}
	ctrl := Controls{Who: mj.Authority, T: says.T, F: link}
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now,
		"instantiate membership-jurisdiction schema over delegation link")
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return Delegates{}, 0, err
	}
	s2 := e.proof.Append(RuleA24GroupJuris, []int{saysStep, s1}, located, now, "")
	f, id, err := e.Install(link, []int{s2}, now)
	if err != nil {
		return Delegates{}, 0, err
	}
	return f.(Delegates), id, nil
}

// AcceptGroupGraphCertificate accepts a group-graph membership
// certificate: from "AA says (G1 ⇒<d> G2)" and AA's membership
// jurisdiction, conclude the bounded graph edge.
func (e *Engine) AcceptGroupGraphCertificate(says Says, saysStep int) (GroupGraphEdge, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return GroupGraphEdge{}, 0, fmt.Errorf("group graph: body is not a formula: %w", ErrSchemaMismatch)
	}
	edge, ok := body.F.(GroupGraphEdge)
	if !ok {
		return GroupGraphEdge{}, 0, fmt.Errorf("group graph: body is not G1 ⇒<d> G2: %w", ErrSchemaMismatch)
	}
	mj, ok := e.store.MembershipJurisdictionFor(says.Who.String())
	if !ok {
		return GroupGraphEdge{}, 0, fmt.Errorf("group graph: no membership jurisdiction held for %s", says.Who)
	}
	ctrl := Controls{Who: mj.Authority, T: says.T, F: edge}
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now,
		"instantiate membership-jurisdiction schema over graph edge")
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return GroupGraphEdge{}, 0, err
	}
	s2 := e.proof.Append(RuleA24GroupJuris, []int{saysStep, s1}, located, now, "")
	_, s3, err := e.Install(edge, []int{s2}, now)
	return edge, s3, err
}

// VerifyCertificate runs the full chain receive → A10 → accuracy → accept
// for an idealized certificate message, dispatching on the certificate
// body (key certificate vs membership certificate). issuerKey is the
// believed verification key of the issuer.
func (e *Engine) VerifyCertificate(cert Signed, issuerKey KeySpeaksFor) (Formula, int, error) {
	rcv, rs := e.Receive(cert, "certificate presented")
	said, ss, err := e.IdentifyOriginator(issuerKey, rcv, rs)
	if err != nil {
		return nil, 0, fmt.Errorf("verify certificate: %w", err)
	}
	// Re-attach the signature for the accuracy step (A10's second
	// conjunct), which expects the signed form.
	saidSigned := Said{Who: said.Who, T: said.T, X: cert}
	says, as, err := e.AcceptCertificateAccuracy(saidSigned, ss)
	if err != nil {
		return nil, 0, fmt.Errorf("verify certificate: %w", err)
	}
	body, ok := says.X.(MsgFormula)
	if !ok {
		return nil, 0, fmt.Errorf("verify certificate: body is not a formula: %w", ErrSchemaMismatch)
	}
	switch body.F.(type) {
	case KeySpeaksFor:
		f, id, err := e.AcceptKeyCertificate(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return f, id, nil
	case MemberOf:
		f, id, err := e.AcceptMembershipCertificate(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return f, id, nil
	case GroupSpeaksFor:
		f, id, err := e.AcceptGroupLinkCertificate(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return f, id, nil
	case Delegates:
		f, id, err := e.AcceptDelegationCertificate(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return f, id, nil
	case GroupGraphEdge:
		f, id, err := e.AcceptGroupGraphCertificate(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return f, id, nil
	case Not:
		id, err := e.ProcessRevocation(says, as)
		if err != nil {
			return nil, 0, fmt.Errorf("verify certificate: %w", err)
		}
		return body.F, id, nil
	default:
		return nil, 0, fmt.Errorf("verify certificate: unsupported body %T: %w", body.F, ErrSchemaMismatch)
	}
}

// VerifySignedRequest runs Step 3 for one signed request component: from a
// received ⟦Q says_tQ X⟧_KQ and the believed key certificate for Q,
// conclude "Q says_tQ X" (statements 23–24).
func (e *Engine) VerifySignedRequest(req Signed, signerKey KeySpeaksFor) (Says, int, error) {
	rcv, rs := e.Receive(req, "signed request component")
	said, ss, err := e.IdentifyOriginator(signerKey, rcv, rs)
	if err != nil {
		return Says{}, 0, fmt.Errorf("verify request: %w", err)
	}
	inner, err := certificateBody(said.X)
	if err != nil {
		return Says{}, 0, fmt.Errorf("verify request: %w", err)
	}
	if !SubjectEqual(inner.Who, said.Who) {
		return Says{}, 0, fmt.Errorf("verify request: request claims speaker %s but signature identifies %s",
			inner.Who, said.Who)
	}
	now := e.clk.Now()
	id := e.proof.Append(RuleA19SaidSays, []int{ss}, inner, now, "request utterance accepted")
	e.store.Add(inner, now, id)
	// Also record the signed form of the utterance, which A38 consumes to
	// check each co-signer used its bound key.
	signedSays := Says{Who: inner.Who, T: inner.T, X: req}
	id2 := e.proof.Append(RuleA19SaidSays, []int{ss}, signedSays, now, "signed utterance retained for A38")
	e.store.Add(signedSays, now, id2)
	return signedSays, id2, nil
}

// ConcludeGroupSays applies the appropriate access-control axiom
// (A34–A38, DeriveGroupSays) given an established membership and the
// verified utterances, producing "G says X" (statement 25) with key-bound
// members' keys looked up in the store. Revocation is re-checked at
// conclusion time.
func (e *Engine) ConcludeGroupSays(mem MemberOf, memStep int, utterances []Says, utterSteps []int) (GroupSays, int, error) {
	now := e.clk.Now()
	if e.store.Revoked(mem.Who, mem.G, now) {
		return GroupSays{}, 0, fmt.Errorf("group says: membership of %s in %s revoked as of %s",
			mem.Who, mem.G.Name, now)
	}
	gs, rule, err := DeriveGroupSays(mem, utterances, now, func(who string) (KeySpeaksFor, bool) {
		return e.store.KeyFor(who, now)
	})
	if err != nil {
		return GroupSays{}, 0, err
	}
	premises := append([]int{memStep}, utterSteps...)
	id := e.proof.Append(rule, premises, gs, now, "statement 25: G says X")
	e.store.Add(gs, now, id)
	return gs, id, nil
}

// DeriveGroupSays is the statement-25 dispatch: from an established
// membership and the verified utterances it concludes "G says X" with the
// access-control axiom the membership's subject selects — A34 or A35 for
// a principal, A38 for a threshold compound principal, A37 or A36 for
// another compound principal — and names the rule it applied. keyFor
// returns the believed key binding of a key-bound member, by the member's
// name (a compound principal's by its rendering). It records nothing:
// Engine.ConcludeGroupSays enters the conclusion into its own proof and
// store, and the residual decider in internal/authz into its spliced
// proof.
func DeriveGroupSays(mem MemberOf, utterances []Says, at clock.Time, keyFor func(who string) (KeySpeaksFor, bool)) (GroupSays, string, error) {
	noUtterance := func() (GroupSays, string, error) {
		return GroupSays{}, "", fmt.Errorf("group says: no utterance supplied: %w", ErrSchemaMismatch)
	}
	switch who := mem.Who.(type) {
	case Principal:
		if len(utterances) == 0 {
			return noUtterance()
		}
		if !who.IsBound() {
			gs, err := A34MemberSays(mem, utterances[0])
			return gs, RuleA34GroupSays, err
		}
		key, ok := keyFor(who.Name)
		if !ok {
			return GroupSays{}, "", fmt.Errorf("group says: no key belief for bound member %s", who.Name)
		}
		gs, err := A35MemberSaysKeyBound(mem, key, utterances[0])
		return gs, RuleA35GroupSaysKey, err
	case CompoundPrincipal:
		if who.IsThreshold() {
			gs, err := A38Threshold(mem, utterances, at)
			return gs, RuleA38Threshold, err
		}
		if len(utterances) == 0 {
			return noUtterance()
		}
		if who.Key() == "" {
			gs, err := A36CompoundSays(mem, utterances[0])
			return gs, RuleA36GroupSaysCP, err
		}
		key, ok := keyFor(CP(who.Members()...).String())
		if !ok {
			return GroupSays{}, "", fmt.Errorf("group says: no key belief for compound principal %s", who)
		}
		gs, err := A37CompoundSaysKeyBound(mem, key, utterances[0])
		return gs, RuleA37GroupSaysCPKey, err
	}
	return GroupSays{}, "", fmt.Errorf("group says: unsupported subject %T: %w", mem.Who, ErrSchemaMismatch)
}

// ProcessRevocation handles a verified revocation statement "RA says_tRA
// ¬(W ⇒_t' G)": it records the negative belief so that the membership can
// no longer be derived for times ≥ now (statement 26 and the
// believe-until-revoked discussion).
func (e *Engine) ProcessRevocation(says Says, saysStep int) (int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return 0, fmt.Errorf("revocation: body is not a formula: %w", ErrSchemaMismatch)
	}
	neg, ok := body.F.(Not)
	if !ok {
		return 0, fmt.Errorf("revocation: body is not a negation: %w", ErrSchemaMismatch)
	}
	mem, ok := neg.F.(MemberOf)
	if !ok {
		return 0, fmt.Errorf("revocation: negated formula is not a membership: %w", ErrSchemaMismatch)
	}
	mj, ok := e.store.MembershipJurisdictionFor(says.Who.String())
	if !ok {
		return 0, fmt.Errorf("revocation: no membership jurisdiction held for %s", says.Who)
	}
	ctrl := mj.Instantiate(says.T, mem)
	ctrlNeg := Controls{Who: ctrl.Who, T: ctrl.T, F: neg}
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrlNeg, now,
		"instantiate membership-jurisdiction schema over negation")
	located, err := A22Jurisdiction(ctrlNeg, says)
	if err != nil {
		return 0, err
	}
	s2 := e.proof.Append(RuleA22Jurisdiction, []int{saysStep, s1}, located, now, "")
	_, id, err := e.Install(neg, []int{s2}, now)
	return id, err
}

// Install enters an accepted certificate's conclusion f into the belief
// store at time at: the one place a group link, a group-graph edge, a
// delegation link or a revocation becomes a belief. premises are the
// steps f rests on — the jurisdiction step of a live derivation (none for
// an identity revocation, whose signature check is its whole derivation),
// or the RuleJournaled leaf of a replayed write-ahead-log record. A
// delegation chain link is composed with its delegator's believed chain,
// and refused when the delegator is revoked, holds no chain, or the
// composition fails; a revocation also enters the revocation index.
// Install returns the believed formula (the composed chain for a chain
// link) and its step.
func (e *Engine) Install(f Formula, premises []int, at clock.Time) (Formula, int, error) {
	switch b := f.(type) {
	case GroupSpeaksFor:
		return f, e.believe("A3 (localized belief)", premises, f, at, "privilege inheritance link"), nil
	case GroupGraphEdge:
		return f, e.believe(RuleGraphEdge, premises, f, at, "group-graph membership edge"), nil
	case Delegates:
		return e.installDelegation(b, premises, at)
	case Not:
		switch neg := b.F.(type) {
		case MemberOf:
			id := e.believe(RuleRevocation, premises, f, at,
				fmt.Sprintf("membership of %s in %s revoked effective %s", neg.Who, neg.G.Name, at))
			e.store.Revoke(neg.Who, neg.G, at, id)
			return f, id, nil
		case KeySpeaksFor:
			id := e.believe(RuleRevocation, premises, f, at,
				fmt.Sprintf("identity key of %s revoked by %s effective %s", neg.Who, neg.T.Observer, neg.T.Time()))
			e.store.RevokeKey(neg.K, neg.T.Time())
			return f, id, nil
		}
	}
	return nil, 0, fmt.Errorf("install: unsupported belief %T: %w", f, ErrSchemaMismatch)
}

// installDelegation is Install for a delegation link: a root grant is
// believed as-is, a chain link as its composition with the delegator's
// chain.
func (e *Engine) installDelegation(link Delegates, premises []int, at clock.Time) (Formula, int, error) {
	s3 := e.proof.Append(RuleDelegationCert, premises, link, at, "delegation certificate link")
	if link.Path == "" { // root grant: believed as-is
		e.store.Add(link, at, s3)
		return link, s3, nil
	}
	if e.store.Revoked(P(link.Path), link.G, at) {
		return nil, 0, fmt.Errorf("delegation: delegator %s revoked in %s as of %s",
			link.Path, link.G.Name, at)
	}
	parent, parentStep, ok := e.store.DelegationFor(link.Path, link.G, at)
	if !ok {
		return nil, 0, fmt.Errorf("delegation: no believed chain for delegator %s in %s",
			link.Path, link.G.Name)
	}
	composed, err := DelegationCompose(parent, link)
	if err != nil {
		return nil, 0, fmt.Errorf("delegation: %w", err)
	}
	return composed, e.believe(RuleDelegationCompose, []int{parentStep, s3}, composed, at,
		fmt.Sprintf("chain %s>%s", composed.Path, composed.To.Name)), nil
}

// believe appends one concluding step and enters its conclusion into the
// store.
func (e *Engine) believe(rule string, premises []int, f Formula, at clock.Time, note string) int {
	id := e.proof.Append(rule, premises, f, at, note)
	e.store.Add(f, at, id)
	return id
}
