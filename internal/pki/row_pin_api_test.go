package pki

import (
	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// The three entry points TestRowPinGolden reaches the package through:
// Issue, Verify and Idealize.

func pinIssue[T certBody](body T, signer Signer) (Signed[T], error) { return Issue(body, signer) }

func pinVerify[T certBody](sc Signed[T], key sharedrsa.PublicKey, at clock.Time) error {
	return Verify(sc, key, at)
}

// pinIdealize reports false for the CRL, which has no idealized form
// (it is no Statement).
func pinIdealize[T certBody](sc Signed[T]) (logic.Signed, bool) {
	switch c := any(sc).(type) {
	case Signed[Identity]:
		return Idealize(c), true
	case Signed[Attribute]:
		return Idealize(c), true
	case Signed[ThresholdAttribute]:
		return Idealize(c), true
	case Signed[GroupLink]:
		return Idealize(c), true
	case Signed[IdentityRevocation]:
		return Idealize(c), true
	case Signed[Revocation]:
		return Idealize(c), true
	case Signed[Delegation]:
		return Idealize(c), true
	case Signed[GroupGraphLink]:
		return Idealize(c), true
	}
	return logic.Signed{}, false
}
