package pki

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// certBody is the set of signed certificate kinds. The union makes a
// fingerprint of anything else a compile error; the method makes every
// member bring its own canonical appender.
type certBody interface {
	Identity | Attribute | ThresholdAttribute | GroupLink | IdentityRevocation | Revocation | Delegation | GroupGraphLink
	appendFingerprint(dst []byte) []byte
}

// Fingerprint returns a stable hex digest identifying a signed certificate:
// SHA-256 over a length-prefixed binary encoding of the kind tag, every
// body field in declaration order, the signer key id and the signature
// value. Every field is self-delimiting and the tag fixes the layout, so
// two certificates share a fingerprint only if they are the same statement
// of the same kind signed by the same key — the property SPKI-style
// verified-certificate caches rely on. The digest is a process-local cache
// key (and a label in cached proof-step notes); nothing ever parses one
// back, so the construction is free to change between builds.
func Fingerprint[T certBody](sc Signed[T]) string {
	var buf [1024]byte // fits 1024-bit keys; a larger certificate spills to the heap
	b := buf[:0]
	// A type switch, not sc.Cert.appendFingerprint: a method call through
	// the type parameter goes via the generic dictionary, which escape
	// analysis cannot see through, and buf would move to the heap.
	switch c := any(sc.Cert).(type) {
	case Identity:
		b = c.appendFingerprint(b)
	case Attribute:
		b = c.appendFingerprint(b)
	case ThresholdAttribute:
		b = c.appendFingerprint(b)
	case GroupLink:
		b = c.appendFingerprint(b)
	case IdentityRevocation:
		b = c.appendFingerprint(b)
	case Revocation:
		b = c.appendFingerprint(b)
	case Delegation:
		b = c.appendFingerprint(b)
	case GroupGraphLink:
		b = c.appendFingerprint(b)
	}
	b = appendFPString(b, sc.SignerKey)
	b = appendFPString(b, sc.SigS)
	sum := sha256.Sum256(b)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// appendFPString appends s with its uvarint length prefix.
func appendFPString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendFPInt appends v as eight big-endian bytes (clock.Time and int
// alike).
func appendFPInt[I ~int | ~int64](dst []byte, v I) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func appendFPSubject(dst []byte, s BoundSubject) []byte {
	return appendFPString(appendFPString(dst, s.Name), s.KeyID)
}

func appendFPSubjects(dst []byte, ss []BoundSubject) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendFPSubject(dst, s)
	}
	return dst
}

func (c Identity) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagIdentity)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Subject)
	dst = appendFPString(dst, c.SubjectKey.N)
	dst = appendFPString(dst, c.SubjectKey.E)
	dst = appendFPString(dst, c.KeyID)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}

func (c Attribute) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagAttribute)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Group)
	dst = appendFPSubject(dst, c.Subject)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}

func (c ThresholdAttribute) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagThreshold)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Group)
	dst = appendFPInt(dst, c.M)
	dst = appendFPSubjects(dst, c.Subjects)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}

func (c GroupLink) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagGroupLink)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Sub)
	dst = appendFPString(dst, c.Sup)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}

func (c IdentityRevocation) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagIdentityRevoke)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Subject)
	dst = appendFPString(dst, c.KeyID)
	return appendFPInt(dst, c.EffectiveAt)
}

func (c Revocation) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagRevoke)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Group)
	dst = appendFPInt(dst, c.M)
	dst = appendFPSubjects(dst, c.Subjects)
	return appendFPInt(dst, c.EffectiveAt)
}

func (c Delegation) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagDelegation)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Delegator)
	dst = appendFPSubject(dst, c.Subject)
	dst = appendFPString(dst, c.Group)
	dst = appendFPInt(dst, c.Depth)
	dst = appendFPString(dst, c.Perms)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}

func (c GroupGraphLink) appendFingerprint(dst []byte) []byte {
	dst = appendFPString(dst, tagGroupGraphLink)
	dst = appendFPString(dst, c.Issuer)
	dst = appendFPInt(dst, c.IssuedAt)
	dst = appendFPString(dst, c.Sub)
	dst = appendFPString(dst, c.Sup)
	dst = appendFPInt(dst, c.Depth)
	dst = appendFPInt(dst, c.NotBefore)
	return appendFPInt(dst, c.NotAfter)
}
