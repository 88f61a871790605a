package pki

import (
	"crypto/sha256"
	"encoding/hex"

	"jointadmin/internal/wirefmt"
)

// Kind tags: the first field of each signed form. No two kinds share one,
// and the request component's tag ("request", internal/authz) is none of
// them, so a signature over one kind never verifies as another.
const (
	tagIdentity       = "identity"
	tagAttribute      = "attribute"
	tagThreshold      = "threshold-attribute"
	tagRevoke         = "revocation"
	tagIdentityRevoke = "identity-revocation"
	tagGroupLink      = "group-link"
	tagDelegation     = "delegation"
	tagGroupGraphLink = "group-graph-link"
	tagCRL            = "crl"
)

// appendSigned appends the signed form of a body: a wirefmt statement of
// its kind tag, then every field in declaration order, strings and lists
// length-prefixed, integers and times as eight big-endian bytes. The tag
// fixes the layout and every variable field is self-delimiting, so two
// bodies have the same signed form only if they are the same statement of
// the same kind. Signing, verification and Fingerprint all encode here.
func appendSigned[T certBody](dst []byte, body T) []byte {
	// A type switch, not body.appendBody: a method call through the type
	// parameter goes via the generic dictionary, which escape analysis
	// cannot see through, and Fingerprint's stack buffer would move to
	// the heap.
	switch c := any(body).(type) {
	case Identity:
		return c.appendBody(dst)
	case Attribute:
		return c.appendBody(dst)
	case ThresholdAttribute:
		return c.appendBody(dst)
	case GroupLink:
		return c.appendBody(dst)
	case IdentityRevocation:
		return c.appendBody(dst)
	case Revocation:
		return c.appendBody(dst)
	case Delegation:
		return c.appendBody(dst)
	case GroupGraphLink:
		return c.appendBody(dst)
	case CRL:
		return c.appendBody(dst)
	}
	return dst
}

// Fingerprint returns a stable hex digest identifying a signed statement:
// the first 16 bytes of SHA-256 over the bytes its signature covers (the
// signed form, appendSigned), the signer key id and the signature value,
// each self-delimiting. Two statements share a fingerprint only if they
// are the same statement of the same kind signed by the same key — the
// property SPKI-style verified-certificate caches rely on. The digest is
// a process-local cache key (and a label in cached proof-step notes) that
// nothing parses back, but it is not free to change on its own: it hashes
// the signed form, and that form changes only with the signatures.
func Fingerprint[T certBody](sc Signed[T]) string {
	var buf [1024]byte // fits 1024-bit keys; a larger statement spills to the heap
	b := appendSigned(buf[:0], sc.Cert)
	b = wirefmt.AppendString(b, sc.SignerKey)
	b = wirefmt.AppendString(b, sc.SigS)
	sum := sha256.Sum256(b)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// appendInt appends v as eight big-endian bytes (clock.Time and int
// alike).
func appendInt[I ~int | ~int64](dst []byte, v I) []byte {
	return wirefmt.AppendInt64(dst, int64(v))
}

func appendSubject(dst []byte, s BoundSubject) []byte {
	return wirefmt.AppendString(wirefmt.AppendString(dst, s.Name), s.KeyID)
}

func appendSubjects(dst []byte, ss []BoundSubject) []byte {
	dst = wirefmt.AppendCount(dst, len(ss))
	for _, s := range ss {
		dst = appendSubject(dst, s)
	}
	return dst
}

func (c Identity) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagIdentity)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Subject)
	dst = wirefmt.AppendString(dst, c.SubjectKey.N)
	dst = wirefmt.AppendString(dst, c.SubjectKey.E)
	dst = wirefmt.AppendString(dst, c.KeyID)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

func (c Attribute) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagAttribute)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Group)
	dst = appendSubject(dst, c.Subject)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

func (c ThresholdAttribute) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagThreshold)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Group)
	dst = appendInt(dst, c.M)
	dst = appendSubjects(dst, c.Subjects)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

func (c GroupLink) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagGroupLink)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Sub)
	dst = wirefmt.AppendString(dst, c.Sup)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

func (c IdentityRevocation) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagIdentityRevoke)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Subject)
	dst = wirefmt.AppendString(dst, c.KeyID)
	return appendInt(dst, c.EffectiveAt)
}

func (c Revocation) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagRevoke)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Group)
	dst = appendInt(dst, c.M)
	dst = appendSubjects(dst, c.Subjects)
	return appendInt(dst, c.EffectiveAt)
}

func (c Delegation) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagDelegation)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Delegator)
	dst = appendSubject(dst, c.Subject)
	dst = wirefmt.AppendString(dst, c.Group)
	dst = appendInt(dst, c.Depth)
	dst = wirefmt.AppendString(dst, c.Perms)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

func (c GroupGraphLink) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagGroupGraphLink)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = wirefmt.AppendString(dst, c.Sub)
	dst = wirefmt.AppendString(dst, c.Sup)
	dst = appendInt(dst, c.Depth)
	dst = appendInt(dst, c.NotBefore)
	return appendInt(dst, c.NotAfter)
}

// appendBody appends the CRL's fields, each entry as its full fingerprint
// preimage (signed form, signer key id, signature), so the list signature
// covers every entry's own signature too. The entry is appended through
// its concrete method: through appendSigned, every instantiation of that
// would be recursive, and escape analysis would move Fingerprint's buffer
// to the heap.
func (c CRL) appendBody(dst []byte) []byte {
	dst = wirefmt.AppendString(dst, tagCRL)
	dst = wirefmt.AppendString(dst, c.Issuer)
	dst = appendInt(dst, c.IssuedAt)
	dst = appendInt(dst, c.Seq)
	dst = wirefmt.AppendCount(dst, len(c.Entries))
	for _, e := range c.Entries {
		dst = e.Cert.appendBody(dst)
		dst = wirefmt.AppendString(dst, e.SignerKey)
		dst = wirefmt.AppendString(dst, e.SigS)
	}
	return dst
}
