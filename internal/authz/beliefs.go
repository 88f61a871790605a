// The belief table: one row per kind of belief certificate — revocation,
// identity revocation, group link, delegation, group-graph link. The live
// acceptance (Apply), a re-anchoring's carry (applyReanchor) and replay
// read a certificate through its kind's row, so they cannot disagree
// about a kind: its record type and denial noun, its decode, which anchor
// key may sign it, its signature and validity check, its pki idealizer,
// and whether acceptance derives it or installs it directly each stand
// once, here (scripts/surface's one-belief-table row).

package authz

import (
	"fmt"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
)

// anchorRule names the anchor keys that may sign a kind of certificate.
type anchorRule int

const (
	byAA        anchorRule = iota // the coalition AA
	byRAOrAA                      // the revocation authority or the AA (Section 4.3)
	byIssuingCA                   // the domain CA the certificate names as issuer
)

// verify checks a certificate of noun from issuer under a: check runs
// with the anchor key r lets sign it.
func (r anchorRule) verify(a TrustAnchors, noun, issuer string, check func(sharedrsa.PublicKey) error) error {
	var key sharedrsa.PublicKey
	switch {
	case r == byIssuingCA:
		var ok bool
		if key, ok = a.CAKeys[issuer]; !ok {
			return fmt.Errorf("%w: %s from untrusted CA %s", ErrDenied, noun, issuer)
		}
	case r == byRAOrAA && a.RAName != "" && issuer == a.RAName:
		key = a.RAKey
	case issuer == a.AAName:
		key = a.AAKey
	default:
		return fmt.Errorf("%w: %s from untrusted issuer %s", ErrDenied, noun, issuer)
	}
	if err := check(key); err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	return nil
}

// beliefKind is one row of the table. decode reads a record body as the
// belief the live path reads the typed certificate as.
type beliefKind struct {
	noun   string     // "<noun> from untrusted issuer I"
	signer anchorRule // which anchor key may sign it
	// derive: acceptance runs the A10 → A22 chain
	// (logic.Engine.VerifyCertificate), named proof in its denial;
	// otherwise it installs the conclusion directly, as an identity
	// revocation from an anchor CA does.
	derive bool
	proof  string
	decode func(body []byte) (belief, error)
	tally  func(*ReplayReport) *int
}

// beliefKinds is the table, by the record type each kind is journaled as.
var beliefKinds = map[wal.Type]beliefKind{
	wal.TypeRevocation: {noun: "revocation", signer: byRAOrAA, derive: true, proof: "revocation",
		decode: decoded(revocationBelief), tally: func(r *ReplayReport) *int { return &r.Revocations }},
	wal.TypeIdentityRevocation: {noun: "identity revocation", signer: byIssuingCA,
		decode: decoded(identityRevocationBelief), tally: func(r *ReplayReport) *int { return &r.IdentityRevocations }},
	wal.TypeGroupLink: {noun: "group link", signer: byAA, derive: true, proof: "group link",
		decode: decoded(groupLinkBelief), tally: func(r *ReplayReport) *int { return &r.GroupLinks }},
	wal.TypeDelegation: {noun: "delegation", signer: byAA, derive: true, proof: "delegation",
		decode: decoded(delegationBelief), tally: func(r *ReplayReport) *int { return &r.Delegations }},
	wal.TypeGroupGraphLink: {noun: "group-graph link", signer: byAA, derive: true, proof: "group-graph",
		decode: decoded(graphLinkBelief), tally: func(r *ReplayReport) *int { return &r.GroupGraphLinks }},
}

// belief is one belief certificate as its row reads it: check verifies
// the signature and any validity interval (ending notAfter) at at, cert
// is the pki idealization, and delegate and revokedKey are what the
// carry-only filters read (snapshot.go).
type belief struct {
	typ        wal.Type
	issuer     string
	check      func(key sharedrsa.PublicKey, at clock.Time) error
	cert       logic.Signed
	notAfter   clock.Time
	delegate   pki.BoundSubject
	revokedKey string
}

func revocationBelief(sc pki.Signed[pki.Revocation]) belief {
	return belief{typ: wal.TypeRevocation, issuer: sc.Cert.Issuer, notAfter: clock.Infinity, cert: pki.IdealizeRevocation(sc),
		check: func(key sharedrsa.PublicKey, _ clock.Time) error { return pki.VerifyRevocation(sc, key) }}
}

func identityRevocationBelief(sc pki.Signed[pki.IdentityRevocation]) belief {
	return belief{typ: wal.TypeIdentityRevocation, issuer: sc.Cert.Issuer, notAfter: clock.Infinity,
		cert: pki.IdealizeIdentityRevocation(sc), revokedKey: sc.Cert.KeyID,
		check: func(key sharedrsa.PublicKey, _ clock.Time) error { return pki.VerifyIdentityRevocation(sc, key) }}
}

func groupLinkBelief(sc pki.Signed[pki.GroupLink]) belief {
	return belief{typ: wal.TypeGroupLink, issuer: sc.Cert.Issuer, notAfter: sc.Cert.NotAfter, cert: pki.IdealizeGroupLink(sc),
		check: func(key sharedrsa.PublicKey, at clock.Time) error { return pki.VerifyGroupLink(sc, key, at) }}
}

func delegationBelief(sc pki.Signed[pki.Delegation]) belief {
	return belief{typ: wal.TypeDelegation, issuer: sc.Cert.Issuer, notAfter: sc.Cert.NotAfter, cert: pki.IdealizeDelegation(sc),
		delegate: sc.Cert.Subject,
		check:    func(key sharedrsa.PublicKey, at clock.Time) error { return pki.VerifyDelegation(sc, key, at) }}
}

func graphLinkBelief(sc pki.Signed[pki.GroupGraphLink]) belief {
	return belief{typ: wal.TypeGroupGraphLink, issuer: sc.Cert.Issuer, notAfter: sc.Cert.NotAfter, cert: pki.IdealizeGroupGraphLink(sc),
		check: func(key sharedrsa.PublicKey, at clock.Time) error { return pki.VerifyGroupGraphLink(sc, key, at) }}
}

// decoded is a row's decode: pki.Unmarshal, then read.
func decoded[T any](read func(pki.Signed[T]) belief) func([]byte) (belief, error) {
	return func(body []byte) (belief, error) {
		sc, err := pki.Unmarshal[T](body)
		if err != nil {
			return belief{}, err
		}
		return read(sc), nil
	}
}

// readBelief decodes a belief record through its kind's row.
func readBelief(r wal.Record) (belief, error) {
	k, ok := beliefKinds[r.Type]
	if !ok {
		return belief{}, fmt.Errorf("no belief mutation for record type %q", r.Type)
	}
	return k.decode(r.Body)
}

// verify checks b under a at time at, with the key its row lets sign it.
func (b belief) verify(a TrustAnchors, at clock.Time) error {
	k := beliefKinds[b.typ]
	return k.signer.verify(a, k.noun, b.issuer, func(key sharedrsa.PublicKey) error { return b.check(key, at) })
}

// admit is b's live acceptance into eng at now under a: verify, then the
// derivation (whose raw outcome derived, when set, sees) or the install.
func (b belief) admit(a TrustAnchors, eng *logic.Engine, now clock.Time, derived func(*logic.Engine, error)) error {
	if err := b.verify(a, now); err != nil {
		return err
	}
	k := beliefKinds[b.typ]
	if !k.derive {
		_, _, err := eng.Install(certBody(b.cert), nil, now)
		return err
	}
	keyBelief, ok := eng.Store().KeyFor(b.issuer, now)
	if !ok {
		who := "issuer " + b.issuer
		if k.signer == byAA {
			who = "AA"
		}
		return fmt.Errorf("%w: no key belief for %s", ErrDenied, who)
	}
	_, _, err := eng.VerifyCertificate(b.cert, keyBelief)
	if derived != nil {
		derived(eng, err)
	}
	if err != nil {
		return fmt.Errorf("%w: %s derivation failed: %v", ErrDenied, k.proof, err)
	}
	return nil
}

// install is replay's acceptance of b, recorded as r: a RuleJournaled
// leaf citing r's seq stands in for b's first derivation, concluded at
// r's timestamp — not the clock's, which may have moved past the record.
func (b belief) install(eng *logic.Engine, r wal.Record) error {
	body := certBody(b.cert)
	leaf := eng.Proof().Append(logic.RuleJournaled, nil, body, r.At, fmt.Sprintf("wal seq %d", r.Seq))
	_, _, err := eng.Install(body, []int{leaf}, r.At)
	return err
}

// verifyCRL checks a revocation list under a: signed, like its entries,
// by the RA or the AA.
func verifyCRL(a TrustAnchors, crl pki.Signed[pki.CRL]) error {
	return byRAOrAA.verify(a, "CRL", crl.Cert.Issuer, func(key sharedrsa.PublicKey) error { return pki.VerifyCRL(crl, key) })
}

// certBody unwraps an idealized certificate ⟦I says_t φ⟧_K to its body φ;
// nil for any other shape, which Install refuses.
func certBody(c logic.Signed) logic.Formula {
	mf, _ := c.X.(logic.MsgFormula)
	says, _ := mf.F.(logic.Says)
	body, _ := says.X.(logic.MsgFormula)
	return body.F
}
