package pki

import (
	"math/big"

	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// This file bridges wire certificates to their idealized logic forms: the
// time-stamped messages of Section 4.2 that the derivation engine reasons
// about. The correspondence is one-to-one — authorization verifies the
// real signature first (keys.go) and then runs the logic derivation on the
// idealization produced here.

// newIntFromHex parses a hex big.Int, reporting success.
func newIntFromHex(s string) (*big.Int, bool) {
	return sharedrsa.ParseHex(new(big.Int), s)
}

// IdealizeIdentity renders the identity certificate as
// ⟦CA says_tCA (K_P ⇒ [tb,te],CA P)⟧_KCA⁻¹.
func IdealizeIdentity(sc Signed[Identity]) logic.Signed {
	body := logic.KeySpeaksFor{
		K:   logic.KeyID(sc.Cert.KeyID),
		T:   logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
		Who: logic.P(sc.Cert.Subject),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// IdealizeAttribute renders a single-subject attribute certificate as
// ⟦CA' says (P|K ⇒ [tb,te],CA' G)⟧_KCA'⁻¹.
func IdealizeAttribute(sc Signed[Attribute]) logic.Signed {
	body := logic.MemberOf{
		Who: logic.P(sc.Cert.Subject.Name).Bind(logic.KeyID(sc.Cert.Subject.KeyID)),
		T:   logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
		G:   logic.G(sc.Cert.Group),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// compoundOf builds the logic compound principal CP = {P1|K1, ...}(m,n)
// named by a threshold certificate's subject list.
func compoundOf(subjects []BoundSubject, m int) logic.CompoundPrincipal {
	ps := make([]logic.Principal, len(subjects))
	for i, s := range subjects {
		ps[i] = logic.P(s.Name).Bind(logic.KeyID(s.KeyID))
	}
	cp := logic.CP(ps...)
	if m > 0 {
		cp = cp.WithThreshold(m)
	}
	return cp
}

// IdealizeThresholdAttribute renders the threshold attribute certificate
// as ⟦AA says_tAA (CP(m,n) ⇒ [tb,te],AA G)⟧_KAA⁻¹ (message 1-3).
func IdealizeThresholdAttribute(sc Signed[ThresholdAttribute]) logic.Signed {
	body := logic.MemberOf{
		Who: compoundOf(sc.Cert.Subjects, sc.Cert.M),
		T:   logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
		G:   logic.G(sc.Cert.Group),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// SubjectOf derives the logic subject a revocation (or certificate) body
// denotes: a single key-bound principal for M = 0 with one subject, and a
// compound principal otherwise.
func SubjectOf(subjects []BoundSubject, m int) logic.Subject {
	if m == 0 && len(subjects) == 1 {
		return logic.P(subjects[0].Name).Bind(logic.KeyID(subjects[0].KeyID))
	}
	return compoundOf(subjects, m)
}

// IdealizeGroupLink renders the privilege-inheritance certificate as
// ⟦AA says_tAA (Group(Sub) ⇒ [tb,te],AA Group(Sup))⟧_KAA⁻¹.
func IdealizeGroupLink(sc Signed[GroupLink]) logic.Signed {
	body := logic.GroupSpeaksFor{
		Sub: logic.G(sc.Cert.Sub),
		T:   logic.During(sc.Cert.NotBefore, sc.Cert.NotAfter).On(sc.Cert.Issuer),
		Sup: logic.G(sc.Cert.Sup),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// IdealizeIdentityRevocation renders the identity revocation certificate
// as ⟦CA says_tCA ¬(K_P ⇒ t',CA P)⟧_KCA⁻¹: the key binding no longer
// holds from the effective time t' on.
func IdealizeIdentityRevocation(sc Signed[IdentityRevocation]) logic.Signed {
	body := logic.Not{F: logic.KeySpeaksFor{
		K:   logic.KeyID(sc.Cert.KeyID),
		T:   logic.At(sc.Cert.EffectiveAt).On(sc.Cert.Issuer),
		Who: logic.P(sc.Cert.Subject),
	}}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(body),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}

// IdealizeRevocation renders the revocation certificate as
// ⟦RA says_tRA ¬(CP(m,n) ⇒ t',RA G)⟧_KRA⁻¹ (message 2), or with a single
// key-bound principal for non-threshold certificates.
func IdealizeRevocation(sc Signed[Revocation]) logic.Signed {
	mem := logic.MemberOf{
		Who: SubjectOf(sc.Cert.Subjects, sc.Cert.M),
		T:   logic.At(sc.Cert.EffectiveAt).On(sc.Cert.Issuer),
		G:   logic.G(sc.Cert.Group),
	}
	says := logic.Says{
		Who: logic.P(sc.Cert.Issuer),
		T:   logic.At(sc.Cert.IssuedAt),
		X:   logic.AsMessage(logic.Not{F: mem}),
	}
	return logic.Sign(logic.AsMessage(says), logic.KeyID(sc.SignerKey))
}
