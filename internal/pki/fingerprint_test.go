package pki

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestFingerprintGolden pins one fingerprint per certificate kind. The
// verified-certificate cache is keyed by these digests, and cached proof
// steps quote them as labels ("(fp …)"), so a change of the construction
// (tag, body fields in declaration order, signer key, signature, each
// length-prefixed) must show up here. Nothing parses a fingerprint back:
// the cache is per process, so a new construction invalidates no state.
func TestFingerprintGolden(t *testing.T) {
	alice := BoundSubject{Name: "alice", KeyID: "k-alice"}
	bob := BoundSubject{Name: "bob", KeyID: "k-bob"}
	for _, tc := range []struct {
		kind string
		got  string
		want string
	}{
		{"identity", Fingerprint(Signed[Identity]{
			Cert: Identity{Issuer: "CA1", IssuedAt: 7, Subject: "alice", SubjectKey: KeyInfo{N: "c0ffee", E: "10001"},
				KeyID: "k-alice", NotBefore: 10, NotAfter: 900},
			SignerKey: "k-ca1", SigS: "a1"}), "f0d600bd7dfddf75e0dfcae2d2f58d2e"},
		{"attribute", Fingerprint(Signed[Attribute]{
			Cert:      Attribute{Issuer: "AA", IssuedAt: 7, Group: "G_read", Subject: alice, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a2"}), "54c0a7b4bb0b1445f8e7aac4eab402fc"},
		{"threshold attribute", Fingerprint(Signed[ThresholdAttribute]{
			Cert: ThresholdAttribute{Issuer: "AA", IssuedAt: 7, Group: "G_write", M: 2,
				Subjects: []BoundSubject{alice, bob}, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a3"}), "5be26aa66ac786dc98883f8804f5e6ae"},
		{"group link", Fingerprint(Signed[GroupLink]{
			Cert:      GroupLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_write", NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a4"}), "94d33c0202db33af1d79c755ddde0d2f"},
		{"identity revocation", Fingerprint(Signed[IdentityRevocation]{
			Cert:      IdentityRevocation{Issuer: "CA1", IssuedAt: 7, Subject: "alice", KeyID: "k-alice", EffectiveAt: 8},
			SignerKey: "k-ca1", SigS: "a5"}), "e5d720c6399e76eacbad1a3e6bae8f85"},
		{"revocation", Fingerprint(Signed[Revocation]{
			Cert: Revocation{Issuer: "RA", IssuedAt: 7, Group: "G_write", M: 2,
				Subjects: []BoundSubject{alice, bob}, EffectiveAt: 8},
			SignerKey: "k-ra", SigS: "a6"}), "cdad2cc811c12c43ef3ed0fc7da5fe79"},
		{"delegation", Fingerprint(Signed[Delegation]{
			Cert: Delegation{Issuer: "AA", IssuedAt: 7, Delegator: "alice", Subject: bob, Group: "G_read",
				Depth: 1, Perms: "read", NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a7"}), "4a83314ae7a0d59ed16154961b8442fa"},
		{"group-graph link", Fingerprint(Signed[GroupGraphLink]{
			Cert:      GroupGraphLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_read", Depth: 2, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a8"}), "4755d54d259cbed0747ff681d799c080"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.kind, tc.got, tc.want)
		}
	}
}

// TestFingerprintInjective checks pairs whose naive concatenation would
// collide: every field is length-prefixed and the kind tag is hashed, so
// each pair must fingerprint differently.
func TestFingerprintInjective(t *testing.T) {
	differ := func(name, a, b string) {
		t.Helper()
		if a == b {
			t.Errorf("%s: both fingerprint %s", name, a)
		}
	}
	link := func(sub, sup string) string {
		return Fingerprint(Signed[GroupLink]{Cert: GroupLink{Issuer: "AA", Sub: sub, Sup: sup}, SignerKey: "k", SigS: "s"})
	}
	differ(`"ab"+"c" vs "a"+"bc"`, link("ab", "c"), link("a", "bc"))
	differ("body field vs signer key", Fingerprint(Signed[GroupLink]{Cert: GroupLink{Sup: "x"}}),
		Fingerprint(Signed[GroupLink]{SignerKey: "x"}))
	differ("signer key vs signature", Fingerprint(Signed[Identity]{SignerKey: "ab", SigS: "c"}),
		Fingerprint(Signed[Identity]{SignerKey: "a", SigS: "bc"}))

	threshold := func(subs ...BoundSubject) string {
		return Fingerprint(Signed[ThresholdAttribute]{Cert: ThresholdAttribute{Group: "G", M: 1, Subjects: subs}})
	}
	differ("subjects split differently",
		threshold(BoundSubject{Name: "ab", KeyID: "c"}),
		threshold(BoundSubject{Name: "a", KeyID: "bc"}))
	differ("two subjects vs one",
		threshold(BoundSubject{Name: "a", KeyID: "b"}, BoundSubject{Name: "c", KeyID: "d"}),
		threshold(BoundSubject{Name: "a", KeyID: "b\x01c\x01d"}))
	differ("no subjects vs one empty subject", threshold(), threshold(BoundSubject{}))

	// Same field layout, different tags: a group link and an identity
	// revocation whose untagged encodings are byte-identical (the link's
	// NotAfter and signer key reappear inside the revocation's signer
	// key). Only the hashed tag tells them apart.
	gl := Signed[GroupLink]{
		Cert:      GroupLink{Issuer: "AA", IssuedAt: 7, Sub: "x", Sup: "y", NotBefore: 10, NotAfter: 9 << 56},
		SignerKey: "k", SigS: "s",
	}
	ir := Signed[IdentityRevocation]{
		Cert:      IdentityRevocation{Issuer: "AA", IssuedAt: 7, Subject: "x", KeyID: "y", EffectiveAt: 10},
		SignerKey: "\x00\x00\x00\x00\x00\x00\x00\x01k", SigS: "s",
	}
	untagged := func(b []byte) []byte {
		n, k := binary.Uvarint(b)
		return b[k+int(n):]
	}
	a := appendFPString(appendFPString(gl.Cert.appendFingerprint(nil), gl.SignerKey), gl.SigS)
	b := appendFPString(appendFPString(ir.Cert.appendFingerprint(nil), ir.SignerKey), ir.SigS)
	if !bytes.Equal(untagged(a), untagged(b)) {
		t.Fatalf("construction drifted: untagged encodings differ\n%q\n%q", untagged(a), untagged(b))
	}
	differ("group link vs identity revocation", Fingerprint(gl), Fingerprint(ir))
}

// TestFingerprintAllocs pins the digest to one allocation, the returned
// hex string: the encoding and the hash live on the stack.
func TestFingerprintAllocs(t *testing.T) {
	sig := string(make([]byte, 256)) // a 1024-bit signature in hex
	id := Signed[Identity]{Cert: Identity{Issuer: "CA1", Subject: "alice", SubjectKey: KeyInfo{N: sig, E: "10001"},
		KeyID: "k-alice"}, SignerKey: "k-ca1", SigS: sig}
	th := Signed[ThresholdAttribute]{Cert: ThresholdAttribute{Issuer: "AA", Group: "G_write", M: 2,
		Subjects: []BoundSubject{{Name: "alice", KeyID: "k-alice"}, {Name: "bob", KeyID: "k-bob"}}},
		SignerKey: "k-aa", SigS: sig}
	for name, fp := range map[string]func(){
		"identity":  func() { _ = Fingerprint(id) },
		"threshold": func() { _ = Fingerprint(th) },
	} {
		if allocs := testing.AllocsPerRun(100, fp); allocs > 1 {
			t.Errorf("Fingerprint(%s) allocates %.0f/op, want at most 1", name, allocs)
		}
	}
}
