package pki

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wirefmt"
)

// TestFingerprintGolden pins one fingerprint per signed kind. The
// verified-certificate cache is keyed by these digests, and cached proof
// steps quote them as labels ("(fp …)"), so a change of the construction
// (tag, body fields in declaration order, signer key, signature, each
// length-prefixed) must show up here. The construction hashes the signed
// form, so a change here is a change of what every signature covers too.
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
		{"crl", Fingerprint(Signed[CRL]{
			Cert: CRL{Issuer: "RA", IssuedAt: 9, Seq: 1, Entries: []Signed[Revocation]{{
				Cert: Revocation{Issuer: "RA", IssuedAt: 7, Group: "G_write", M: 2,
					Subjects: []BoundSubject{alice, bob}, EffectiveAt: 8},
				SignerKey: "k-ra", SigS: "a6"}}},
			SignerKey: "k-ra", SigS: "a9"}), "2cad1bc821d2d507d2c42eb9504e5627"},
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
	a := wirefmt.AppendString(wirefmt.AppendString(appendSigned(nil, gl.Cert), gl.SignerKey), gl.SigS)
	b := wirefmt.AppendString(wirefmt.AppendString(appendSigned(nil, ir.Cert), ir.SignerKey), ir.SigS)
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

// recorder signs with a real key and keeps the bytes it was asked to sign.
type recorder struct {
	kp   *KeyPair
	msgs [][]byte
}

func (r *recorder) Public() sharedrsa.PublicKey { return r.kp.Public() }

func (r *recorder) Sign(msg []byte) (sharedrsa.Signature, error) {
	r.msgs = append(r.msgs, bytes.Clone(msg))
	return r.kp.Sign(msg)
}

// signedOnce checks one statement that rec signed: rec signed once, the
// statement verifies, and its fingerprint is the first 16 bytes of
// SHA-256 over exactly the signed bytes, then the signer key id and the
// signature.
func signedOnce[T certBody](t *testing.T, rec *recorder, sc Signed[T], issueErr, verifyErr error) {
	t.Helper()
	defer func() { rec.msgs = nil }()
	if issueErr != nil || verifyErr != nil || len(rec.msgs) != 1 {
		t.Fatalf("%T: issue %v, verify %v, %d signatures", sc.Cert, issueErr, verifyErr, len(rec.msgs))
	}
	sum := sha256.Sum256(wirefmt.AppendString(wirefmt.AppendString(rec.msgs[0], sc.SignerKey), sc.SigS))
	if fp, want := Fingerprint(sc), hex.EncodeToString(sum[:16]); fp != want {
		t.Errorf("%T: fingerprint %s, want %s over the signed bytes", sc.Cert, fp, want)
	}
}

// TestFingerprintHashesSignedBytes signs one statement of each of the nine
// kinds: the fingerprint and the signature cover one form.
func TestFingerprintHashesSignedBytes(t *testing.T) {
	ca, user := keys(t)
	rec := &recorder{kp: ca}
	alice := BoundSubject{Name: "alice", KeyID: "k-alice"}
	bob := BoundSubject{Name: "bob", KeyID: "k-bob"}
	const at = clock.Time(100)

	id, err := Issue(identityBody(ca, user), rec)
	signedOnce(t, rec, id, err, Verify(id, ca.Public(), at))
	attr, err := Issue(Attribute{Issuer: "AA", IssuedAt: 7, Group: "G_read", Subject: alice, NotBefore: 10, NotAfter: 900}, rec)
	signedOnce(t, rec, attr, err, Verify(attr, ca.Public(), at))
	th, err := Issue(thresholdBody(user), rec)
	signedOnce(t, rec, th, err, Verify(th, ca.Public(), at))
	gl, err := Issue(GroupLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_write", NotBefore: 10, NotAfter: 900}, rec)
	signedOnce(t, rec, gl, err, Verify(gl, ca.Public(), at))
	ir, err := Issue(IdentityRevocation{Issuer: "CA1", IssuedAt: 7, Subject: "alice", KeyID: "k-alice", EffectiveAt: 8}, rec)
	signedOnce(t, rec, ir, err, Verify(ir, ca.Public(), at))
	rev, err := Issue(Revocation{Issuer: "RA", IssuedAt: 7, Group: "G_write", M: 2, Subjects: []BoundSubject{alice, bob}, EffectiveAt: 8}, rec)
	signedOnce(t, rec, rev, err, Verify(rev, ca.Public(), at))
	dl, err := Issue(Delegation{Issuer: "AA", IssuedAt: 7, Delegator: "alice", Subject: bob, Group: "G_read",
		Depth: 1, Perms: "read", NotBefore: 10, NotAfter: 900}, rec)
	signedOnce(t, rec, dl, err, Verify(dl, ca.Public(), at))
	gg, err := Issue(GroupGraphLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_read", Depth: 2, NotBefore: 10, NotAfter: 900}, rec)
	signedOnce(t, rec, gg, err, Verify(gg, ca.Public(), at))
	crl, err := Issue(CRL{Issuer: "RA", IssuedAt: 150, Seq: 1, Entries: []Signed[Revocation]{rev}}, rec)
	signedOnce(t, rec, crl, err, Verify(crl, ca.Public(), at))
}

// TestSignedFormInjective: two identity certificates whose subjects differ
// only in bytes that are not UTF-8 have different signed forms, so a
// signature over one does not verify as the other. (A JSON encoding maps
// both invalid bytes to U+FFFD and would sign them alike.)
func TestSignedFormInjective(t *testing.T) {
	ca, user := keys(t)
	body := identityBody(ca, user)
	body.Subject = "a\xff"
	sc, err := Issue(body, ca.AsSigner())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sc, ca.Public(), 100); err != nil {
		t.Fatal(err)
	}
	sc.Cert.Subject = "a\xfe"
	if err := Verify(sc, ca.Public(), 100); !errors.Is(err, errBadCertSignature) {
		t.Fatalf("identity for %q verifies as %q: %v", "a\xff", sc.Cert.Subject, err)
	}
}
