package pki

import (
	"testing"

	"jointadmin/internal/sharedrsa"
)

func benchKeys(b *testing.B) (ca, user *KeyPair) {
	b.Helper()
	if testCA == nil {
		var err error
		testCA, err = GenerateKeyPair(512, nil)
		if err != nil {
			b.Fatal(err)
		}
		testUser, err = GenerateKeyPair(512, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	return testCA, testUser
}

func BenchmarkIssueIdentity(b *testing.B) {
	ca, user := benchKeys(b)
	body := Identity{
		Issuer: "CA1", IssuedAt: 90, Subject: "User_D1",
		SubjectKey: NewKeyInfo(user.Public()), KeyID: user.KeyID(),
		NotBefore: 50, NotAfter: 5000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Issue(body, ca.AsSigner()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyIdentity(b *testing.B) {
	ca, user := benchKeys(b)
	body := Identity{
		Issuer: "CA1", IssuedAt: 90, Subject: "User_D1",
		SubjectKey: NewKeyInfo(user.Public()), KeyID: user.KeyID(),
		NotBefore: 50, NotAfter: 5000,
	}
	sc, err := Issue(body, ca.AsSigner())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(sc, ca.Public(), 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIssueThresholdJoint(b *testing.B) {
	_, user := benchKeys(b)
	res, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	joint := NewJointSigner(res.Public, res.Shares)
	body := thresholdBodyBench(user)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Issue(body, joint); err != nil {
			b.Fatal(err)
		}
	}
}

func thresholdBodyBench(user *KeyPair) ThresholdAttribute {
	return ThresholdAttribute{
		Issuer: "AA", IssuedAt: 95, Group: "G_write", M: 2,
		Subjects: []BoundSubject{
			{Name: "User_D1", KeyID: user.KeyID()},
			{Name: "User_D2", KeyID: "k2"},
			{Name: "User_D3", KeyID: "k3"},
		},
		NotBefore: 50, NotAfter: 5000,
	}
}

func BenchmarkIdealizeThreshold(b *testing.B) {
	ca, user := benchKeys(b)
	sc, err := Issue(thresholdBodyBench(user), ca.AsSigner())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Idealize(sc)
	}
}
