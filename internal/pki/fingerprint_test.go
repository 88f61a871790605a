package pki

import "testing"

// TestFingerprintGolden pins one fingerprint per certificate kind. The
// verified-certificate cache is keyed by these digests and audit traces
// quote them, so a change of the construction (type tag, signer key,
// signature, declaration-order JSON of the body) must show up here.
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
			SignerKey: "k-ca1", SigS: "a1"}), "c4de3a83f2cea027c0f1ce8c0c804111"},
		{"attribute", Fingerprint(Signed[Attribute]{
			Cert:      Attribute{Issuer: "AA", IssuedAt: 7, Group: "G_read", Subject: alice, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a2"}), "3c38ae769f6913773df29bb7dbe7d602"},
		{"threshold attribute", Fingerprint(Signed[ThresholdAttribute]{
			Cert: ThresholdAttribute{Issuer: "AA", IssuedAt: 7, Group: "G_write", M: 2,
				Subjects: []BoundSubject{alice, bob}, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a3"}), "76c131f4b3a66ec8de0ff35159e94266"},
		{"group link", Fingerprint(Signed[GroupLink]{
			Cert:      GroupLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_write", NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a4"}), "793fa0dafc9539479a997fda099d96b9"},
		{"identity revocation", Fingerprint(Signed[IdentityRevocation]{
			Cert:      IdentityRevocation{Issuer: "CA1", IssuedAt: 7, Subject: "alice", KeyID: "k-alice", EffectiveAt: 8},
			SignerKey: "k-ca1", SigS: "a5"}), "39b04ff669112c274825442597b74079"},
		{"revocation", Fingerprint(Signed[Revocation]{
			Cert: Revocation{Issuer: "RA", IssuedAt: 7, Group: "G_write", M: 2,
				Subjects: []BoundSubject{alice, bob}, EffectiveAt: 8},
			SignerKey: "k-ra", SigS: "a6"}), "f11ffa442e77e31f681d99c09e3476a7"},
		{"delegation", Fingerprint(Signed[Delegation]{
			Cert: Delegation{Issuer: "AA", IssuedAt: 7, Delegator: "alice", Subject: bob, Group: "G_read",
				Depth: 1, Perms: "read", NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a7"}), "dc160de04d7b96085cb2e60fd882874d"},
		{"group-graph link", Fingerprint(Signed[GroupGraphLink]{
			Cert:      GroupGraphLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_read", Depth: 2, NotBefore: 10, NotAfter: 900},
			SignerKey: "k-aa", SigS: "a8"}), "b66f6f3337f38d1c4e169a0c0c3af38b"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.kind, tc.got, tc.want)
		}
	}
}
