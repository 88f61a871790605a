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

// acceptRow is how the engine accepts one certificate body kind once
// accuracy has concluded "issuer says_t φ" (Steps 1–2, Appendix E
// statements 15–22). Every kind takes the same chain — instantiate the
// issuer's jurisdiction over φ, localize φ with A22 (A24–A33 for group
// membership), believe φ — and its row holds what differs: the noun its
// refusals start with; the jurisdiction it consults (juris returns the
// schema's authority or the refusal, the revocation row's also for a
// negation that is not a membership) and the note instantiating it; its
// believe-until-revoked leaf, if any; the rule its A22 step cites for a
// principal issuer and, if different, for a compound one; and the note
// of the A3 step that believes φ, or "" for Install to believe it.
type acceptRow struct {
	noun, schema string
	juris        func(s *BeliefStore, issuer Subject, f Formula) (Subject, error)
	leaf         func(s *BeliefStore, f Formula, now clock.Time) error
	rule, cpRule string
	a3Note       string
}

// The acceptance table: one row per certificate body kind.
var (
	keyRow = acceptRow{noun: "key certificate", juris: keyJurisdiction,
		schema: "instantiate key-jurisdiction schema (statement 15)",
		leaf: func(s *BeliefStore, f Formula, now clock.Time) error {
			if k := f.(KeySpeaksFor); s.KeyRevoked(k.K, now) {
				return leafRevoked(fmt.Sprintf("key %s revoked as of %s", k.K, now))
			}
			return nil
		},
		rule: RuleA22Jurisdiction, a3Note: "statement 16"}
	membershipRow = acceptRow{noun: "attribute certificate", juris: membershipJurisdiction,
		schema: "instantiate membership-jurisdiction schema",
		leaf: func(s *BeliefStore, f Formula, now clock.Time) error {
			if m := f.(MemberOf); s.Revoked(m.Who, m.G, now) {
				return leafRevoked(fmt.Sprintf("membership of %s in %s revoked as of %s", m.Who, m.G.Name, now))
			}
			return nil
		},
		rule: RuleA24GroupJuris, cpRule: RuleA29GroupJurisCP, a3Note: "statement 22"}
	groupLinkRow = acceptRow{noun: "group link", juris: membershipJurisdiction,
		schema: "instantiate membership-jurisdiction schema over group link", rule: RuleA24GroupJuris}
	delegationRow = acceptRow{noun: "delegation", juris: membershipJurisdiction,
		schema: "instantiate membership-jurisdiction schema over delegation link",
		leaf: func(s *BeliefStore, f Formula, now clock.Time) error {
			if d := f.(Delegates); s.Revoked(d.To, d.G, now) {
				return leafRevoked(fmt.Sprintf("subject %s revoked in %s as of %s", d.To, d.G.Name, now))
			}
			return nil
		},
		rule: RuleA24GroupJuris}
	graphEdgeRow = acceptRow{noun: "group graph", juris: membershipJurisdiction,
		schema: "instantiate membership-jurisdiction schema over graph edge", rule: RuleA24GroupJuris}
	revocationRow = acceptRow{noun: "revocation",
		juris: func(s *BeliefStore, issuer Subject, f Formula) (Subject, error) {
			if _, ok := f.(Not).F.(MemberOf); !ok {
				return nil, fmt.Errorf("negated formula is not a membership: %w", ErrSchemaMismatch)
			}
			return membershipJurisdiction(s, issuer, f)
		},
		schema: "instantiate membership-jurisdiction schema over negation", rule: RuleA22Jurisdiction}
)

// acceptRowFor returns the row that accepts body f, nil for a kind no
// certificate carries.
func acceptRowFor(f Formula) *acceptRow {
	switch f.(type) {
	case KeySpeaksFor:
		return &keyRow
	case MemberOf:
		return &membershipRow
	case GroupSpeaksFor:
		return &groupLinkRow
	case Delegates:
		return &delegationRow
	case GroupGraphEdge:
		return &graphEdgeRow
	case Not:
		return &revocationRow
	}
	return nil
}

// keyJurisdiction is a simple CA's key jurisdiction (statements 6–11).
func keyJurisdiction(s *BeliefStore, issuer Subject, _ Formula) (Subject, error) {
	ca, ok := issuer.(Principal)
	if !ok {
		return nil, fmt.Errorf("issuer is not a simple CA: %w", ErrSchemaMismatch)
	}
	kj, ok := s.KeyJurisdictionFor(ca.Name)
	if !ok {
		return nil, fmt.Errorf("no key jurisdiction held for %s", ca.Name)
	}
	return kj.CA, nil
}

// membershipJurisdiction is the issuer's membership jurisdiction
// (statements 2–3), which also covers group relations, delegations and
// revocations.
func membershipJurisdiction(s *BeliefStore, issuer Subject, _ Formula) (Subject, error) {
	mj, ok := s.MembershipJurisdictionFor(issuer.String())
	if !ok {
		return nil, fmt.Errorf("no membership jurisdiction held for %s", issuer)
	}
	return mj.Authority, nil
}

// leafRevoked is a believe-until-revoked refusal: its text, matching
// ErrLeafRevoked.
type leafRevoked string

func (e leafRevoked) Error() string { return string(e) }
func (leafRevoked) Unwrap() error   { return ErrLeafRevoked }

// LeafRefusal is the believe-until-revoked refusal VerifyCertificate gives
// a certificate concluding f against store s at now, worded as it words
// it and matching ErrLeafRevoked; nil when f's subject is unrevoked or
// f's kind has no such leaf. A decider that cached a certificate's
// verification re-checks this one belief-dependent leaf with it.
func LeafRefusal(s *BeliefStore, f Formula, now clock.Time) error {
	if r := acceptRowFor(f); r != nil && r.leaf != nil {
		if err := r.leaf(s, f, now); err != nil {
			return fmt.Errorf("verify certificate: %s: %w", r.noun, err)
		}
	}
	return nil
}

// accept concludes φ from "issuer says_t φ" by φ's row: statement 16 for
// a key binding, 22 for a membership, Install's conclusion otherwise (a
// delegation chain link composed with its delegator's believed chain).
func (e *Engine) accept(says Says, saysStep int) (Formula, int, error) {
	now := e.clk.Now()
	body, ok := says.X.(MsgFormula)
	if !ok {
		return nil, 0, fmt.Errorf("body is not a formula: %w", ErrSchemaMismatch)
	}
	f := body.F
	r := acceptRowFor(f)
	if r == nil {
		return nil, 0, fmt.Errorf("unsupported body %T: %w", f, ErrSchemaMismatch)
	}
	authority, err := r.juris(e.store, says.Who, f)
	if err == nil && r.leaf != nil {
		err = r.leaf(e.store, f, now)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", r.noun, err)
	}
	ctrl := Controls{Who: authority, T: says.T, F: f}
	s1 := e.proof.Append(RuleInstantiate, []int{saysStep}, ctrl, now, r.schema)
	located, err := A22Jurisdiction(ctrl, says)
	if err != nil {
		return nil, 0, err
	}
	rule := r.rule
	if _, isCP := says.Who.(CompoundPrincipal); isCP && r.cpRule != "" {
		rule = r.cpRule
	}
	s2 := e.proof.Append(rule, []int{saysStep, s1}, located, now, "")
	if r.a3Note == "" {
		return e.Install(f, []int{s2}, now)
	}
	return f, e.believe(RuleA3LocalizedBelief, []int{s2}, f, now, r.a3Note), nil
}

// VerifyCertificate runs the full chain receive → A10 → accuracy → accept
// for an idealized certificate message. issuerKey is the believed
// verification key of the issuer.
func (e *Engine) VerifyCertificate(cert Signed, issuerKey KeySpeaksFor) (Formula, int, error) {
	rcv, rs := e.Receive(cert, "certificate presented")
	said, ss, err := e.IdentifyOriginator(issuerKey, rcv, rs)
	if err != nil {
		return nil, 0, fmt.Errorf("verify certificate: %w", err)
	}
	// Re-attach the signature for the accuracy step (A10's second
	// conjunct), which expects the signed form.
	says, as, err := e.AcceptCertificateAccuracy(Said{Who: said.Who, T: said.T, X: cert}, ss)
	if err != nil {
		return nil, 0, fmt.Errorf("verify certificate: %w", err)
	}
	f, id, err := e.accept(says, as)
	if err != nil {
		return nil, 0, fmt.Errorf("verify certificate: %w", err)
	}
	return f, id, nil
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
// conclusion time, by the membership row's own leaf.
func (e *Engine) ConcludeGroupSays(mem MemberOf, memStep int, utterances []Says, utterSteps []int) (GroupSays, int, error) {
	now := e.clk.Now()
	if err := membershipRow.leaf(e.store, mem, now); err != nil {
		return GroupSays{}, 0, fmt.Errorf("group says: %w", err)
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
		return f, e.believe(RuleA3LocalizedBelief, premises, f, at, "privilege inheritance link"), nil
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
