// The unified mutation API: every operation that changes the server's
// belief state — group links, membership and identity revocations, CRLs,
// re-anchoring, delegations, group-graph links — is a Mutation variant
// applied through Server.Apply, the single entry point for live changes
// (a library caller or the daemon's mutate command).
//
// Accepting a certificate has two parts, both read from its kind's row
// of the belief table (beliefs.go). Derive runs on the live path only:
// the signature check against a trust anchor and the engine's A10 → A22
// chain (logic.Engine.VerifyCertificate). Install is
// logic.Engine.Install, the tail of every acceptance, which turns the
// certificate's conclusion into a belief. WAL replay and replication
// (journal.go) re-run only the install, on the recorded certificate's
// pki idealization — the same one derive used — so a recovered or
// replicated server holds the beliefs the live one does by construction.

package authz

import (
	"context"
	"errors"
	"fmt"
	"time"

	"jointadmin/internal/audit"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
	"jointadmin/internal/wal"
)

// Wire verbs, one per Mutation variant. The daemon's "mutate" command
// and policyctl's -op flag dispatch on these; scripts/check.sh enforces
// that every verb is exposed and documented.
const (
	VerbGroupLink          = "link"
	VerbRevocation         = "revoke"
	VerbIdentityRevocation = "revoke-identity"
	VerbCRL                = "crl"
	VerbReanchor           = "reanchor"
	VerbDelegation         = "delegate"
	VerbGroupGraphLink     = "graph-link"
)

// Verbs lists every mutation verb, in the order the variants are
// declared.
var Verbs = []string{VerbGroupLink, VerbRevocation, VerbIdentityRevocation, VerbCRL, VerbReanchor, VerbDelegation, VerbGroupGraphLink}

// Mutation is one belief-state change, applied via Server.Apply. The
// sum is closed: exactly the seven variants below exist.
type Mutation interface {
	// Verb returns the variant's wire verb.
	Verb() string
}

// GroupLink submits a privilege-inheritance certificate from the AA;
// members of Sub then pass Step 4 against ACL entries naming Sup.
type GroupLink struct {
	Cert pki.Signed[pki.GroupLink]
}

// IdentityRevocation withdraws a user key binding, per a revocation
// certificate from one of the trusted domain CAs.
type IdentityRevocation struct {
	Cert pki.Signed[pki.IdentityRevocation]
}

// CRL submits a signed revocation list; every entry not yet believed
// revoked is applied as a Revocation.
type CRL struct {
	List pki.Signed[pki.CRL]
}

// Revocation withdraws a group membership, per a revocation certificate
// from the RA or the AA itself.
type Revocation struct {
	Cert pki.Signed[pki.Revocation]
}

// Delegation submits a delegation-link certificate from the AA: a root
// grant (no delegator) or a chain extension, composed on acceptance with
// the delegator's believed chain into a root-anchored composed
// delegation (depth decrements, permissions and validity intersect).
type Delegation struct {
	Cert pki.Signed[pki.Delegation]
}

// GroupGraphLink submits a group-graph membership certificate from the
// AA: group Sub becomes a bounded member of group Sup, extending the
// relation graph Step 4 traverses.
type GroupGraphLink struct {
	Cert pki.Signed[pki.GroupGraphLink]
}

// Reanchor replaces the server's trust anchors — the re-anchoring a
// coalition join or leave requires — bumping the key epoch and
// rebuilding the belief set from the new anchors and every held belief
// certificate they still verify.
type Reanchor struct {
	Anchors TrustAnchors
	// Departed are the bound subjects of users whose domain has left the
	// coalition: a delegation to one of them is not carried, and neither
	// is a chain link that extends it.
	Departed []pki.BoundSubject
}

func (GroupLink) Verb() string          { return VerbGroupLink }
func (IdentityRevocation) Verb() string { return VerbIdentityRevocation }
func (CRL) Verb() string                { return VerbCRL }
func (Revocation) Verb() string         { return VerbRevocation }
func (Delegation) Verb() string         { return VerbDelegation }
func (GroupGraphLink) Verb() string     { return VerbGroupGraphLink }
func (Reanchor) Verb() string           { return VerbReanchor }

// Apply verifies and applies one belief mutation, publishing a new
// snapshot (journaled first when a journal is attached) with an empty
// residue memo; the verified-certificate cache is kept unless the
// mutation is a Reanchor (snapshot.go). It is the single entry point for
// belief changes. A belief certificate is accepted through its kind's row
// of the belief table (beliefs.go); what stays here per kind is its side
// effects: audit entries, revocation metrics and the delegation counters.
func (s *Server) Apply(ctx context.Context, m Mutation) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	switch v := m.(type) {
	case GroupLink:
		return accept(s, wal.TypeGroupLink, v.Cert, nil)
	case IdentityRevocation:
		return s.applyIdentityRevocation(v.Cert)
	case CRL:
		_, err := s.applyCRL(v.List)
		return err
	case Revocation:
		return s.applyRevocation(v.Cert)
	case Delegation:
		// The derivation composes a chain extension with the delegator's
		// believed chain, refusing it when the delegator's remaining depth
		// is exhausted, the permission sets are disjoint, or the validity
		// intervals do not intersect.
		err := accept(s, wal.TypeDelegation, v.Cert, func(_ *logic.Engine, err error) {
			if errors.Is(err, logic.ErrDepthExhausted) {
				s.reg.Counter(delegation.MetricDepthExhausted).Inc()
			}
		})
		if err == nil {
			s.reg.Counter(delegation.MetricChains).Inc()
		}
		return err
	case GroupGraphLink:
		if err := accept(s, wal.TypeGroupGraphLink, v.Cert, nil); err != nil {
			return err
		}
		s.reg.Counter(delegation.MetricGraphLinks).Inc()
		return nil
	case Reanchor:
		return s.applyReanchor(v, nil, nil)
	case nil:
		return fmt.Errorf("authz: nil mutation")
	default:
		return fmt.Errorf("authz: unsupported mutation %T", m)
	}
}

// accept is the live acceptance of one belief certificate, read as its
// row reads it: admitted (belief.admit) under the current anchors at the
// clock's time, then journaled as its kind's record — one pki.Marshal.
func accept[T pki.Statement](s *Server, typ wal.Type, sc pki.Signed[T], derived func(*logic.Engine, error)) error {
	b := beliefOf(typ, sc)
	return s.mutate(true, func(cur *state, eng *logic.Engine) (*wal.Record, error) {
		now := s.clk.Now()
		if err := b.admit(cur.anchors, eng, now, derived); err != nil {
			return nil, err
		}
		body, err := pki.Marshal(sc)
		if err != nil {
			return nil, err
		}
		return &wal.Record{Type: b.typ, At: now, Body: body}, nil
	})
}

// applyIdentityRevocation accepts an IdentityRevocation: requests signed
// with the revoked key are denied from the effective time on (identity
// revocation per Stubblebine–Wright, which the paper defers to): cached
// verifications of the key's certificates stay, and every hit on them
// re-checks KeyRevoked against the new snapshot.
func (s *Server) applyIdentityRevocation(rev pki.Signed[pki.IdentityRevocation]) (err error) {
	defer func(start time.Time) { s.observeRevocation("identity", start, err) }(time.Now())
	if err = accept(s, wal.TypeIdentityRevocation, rev, nil); err != nil {
		return err
	}
	s.audit(audit.Entry{
		At: s.clk.Now(), Outcome: audit.RevocationRecorded, Server: s.name,
		Requestor: rev.Cert.Issuer,
		Reason:    fmt.Sprintf("identity key of %s revoked effective %s", rev.Cert.Subject, rev.Cert.EffectiveAt),
	})
	return nil
}

// applyCRL verifies a signed revocation list and feeds every entry into
// the belief store — the "most recent available revocation information"
// refresh of Section 4.3. It returns how many entries were newly
// recorded.
func (s *Server) applyCRL(crl pki.Signed[pki.CRL]) (applied int, err error) {
	defer func(start time.Time) { s.observeRevocation("crl", start, err) }(time.Now())
	if err := verifyCRL(s.state.Load().anchors, crl, s.clk.Now()); err != nil {
		return 0, err
	}
	for _, rev := range crl.Cert.Entries {
		already := s.state.Load().eng.Store().Revoked(
			pki.SubjectOf(rev.Cert.Subjects, rev.Cert.M), logic.G(rev.Cert.Group), s.clk.Now())
		if already {
			continue
		}
		if err := s.applyRevocation(rev); err != nil {
			return applied, fmt.Errorf("CRL entry for %s: %w", rev.Cert.Group, err)
		}
		applied++
	}
	return applied, nil
}

// applyRevocation accepts a revocation certificate (from the RA or the
// AA itself), recording the negative belief in a new snapshot;
// subsequent derivations for the revoked membership fail
// (believe-until-revoked) — cold, and on every hit of a cached
// verification, which re-checks Revoked against the new snapshot.
func (s *Server) applyRevocation(rev pki.Signed[pki.Revocation]) (err error) {
	defer func(start time.Time) { s.observeRevocation("membership", start, err) }(time.Now())
	// The entry keeps the revocation's own derivation — the steps its
	// acceptance appended and what they cite — not the server's whole
	// proof, and renders it when read (or journaled), outside s.mu.
	var derivation logic.Derivation
	err = accept(s, wal.TypeRevocation, rev, func(eng *logic.Engine, err error) {
		if err == nil {
			derivation = eng.Proof().Justification()
		}
	})
	if err != nil {
		return err
	}
	s.audit(audit.Entry{
		At: s.clk.Now(), Outcome: audit.RevocationRecorded, Server: s.name,
		Requestor: rev.Cert.Issuer, Group: rev.Cert.Group,
		Reason:     fmt.Sprintf("membership revoked effective %s", rev.Cert.EffectiveAt),
		Derivation: derivation,
	})
	return nil
}
