package pki

import (
	"math/big"

	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// This file bridges wire certificates to their idealized logic forms: the
// time-stamped messages of Section 4.2 that the derivation engine reasons
// about. The correspondence is one-to-one — authorization verifies the
// real signature first (Verify) and then runs the logic derivation on the
// idealization produced here.

// newIntFromHex parses a hex big.Int, reporting success.
func newIntFromHex(s string) (*big.Int, bool) {
	return sharedrsa.ParseHex(new(big.Int), s)
}

// Idealize renders a certificate as ⟦I says_t φ⟧_{K_I⁻¹} (Appendix E):
// its issuer I says, at its issue time t, the statement φ of its kind,
// under the key that signed it.
func Idealize[T Statement](sc Signed[T]) logic.Signed {
	issuer, at := sc.Cert.issued()
	says := logic.Says{
		Who: logic.P(issuer),
		T:   logic.At(at),
		X:   logic.AsMessage(sc.Cert.statement()),
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

// SubjectOf derives the logic subject a revocation (or certificate) body
// denotes: a single key-bound principal for M = 0 with one subject, and a
// compound principal otherwise.
func SubjectOf(subjects []BoundSubject, m int) logic.Subject {
	if m == 0 && len(subjects) == 1 {
		return logic.P(subjects[0].Name).Bind(logic.KeyID(subjects[0].KeyID))
	}
	return compoundOf(subjects, m)
}
