package pki

// Golden pin for the nine signed kinds, one row each: the idealized
// form of every kind that has one, verification at the ends of the
// validity interval and one tick outside them (and at the same times for
// the revocations and the CRL, which have none), the refusal of a
// tampered body, every issuance refusal with its text, and the text of a
// signer's failure. testdata/row_pin_golden.txt was captured from the
// package that spelled issuance, verification and idealization out once
// per kind; the one-row package must reproduce it byte for byte. The
// test reaches the package only through pinIssue, pinVerify and
// pinIdealize (row_pin_api_test.go).

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/sharedrsa"
)

const rowPinGoldenFile = "testdata/row_pin_golden.txt"

// pinTimes are the verification times: either side of [10, 900], its
// ends, and Infinity.
var pinTimes = []clock.Time{9, 10, 900, 901, clock.Infinity}

// pinEdit names one change to a well-formed body.
type pinEdit[T any] struct {
	name string
	edit func(*T)
}

// pinRow is one kind: a well-formed body valid over [10, 900], the edit
// a tamperer makes after signing, and the edits issuance refuses.
type pinRow[T certBody] struct {
	name   string
	body   T
	tamper func(*T)
	refuse []pinEdit[T]
}

// failingSigner refuses every signature.
type failingSigner struct{ pk sharedrsa.PublicKey }

func (f failingSigner) Public() sharedrsa.PublicKey { return f.pk }
func (failingSigner) Sign([]byte) (sharedrsa.Signature, error) {
	return sharedrsa.Signature{}, errors.New("no quorum")
}

func pinErr(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func (r pinRow[T]) pin(t *testing.T, w *strings.Builder, ca *KeyPair) {
	fmt.Fprintf(w, "== %s ==\n", r.name)
	if ideal, ok := pinIdealize(Signed[T]{Cert: r.body, SignerKey: "k-issuer", SigS: "5"}); ok {
		fmt.Fprintf(w, "idealized: %s\n", ideal)
	}
	sc, err := pinIssue(r.body, ca.AsSigner())
	if err != nil {
		t.Fatalf("%s: issue: %v", r.name, err)
	}
	for _, at := range pinTimes {
		fmt.Fprintf(w, "verify at %s: %s\n", at, pinErr(pinVerify(sc, ca.Public(), at)))
	}
	tampered := sc
	r.tamper(&tampered.Cert)
	fmt.Fprintf(w, "tampered: %s\n", pinErr(pinVerify(tampered, ca.Public(), 10)))
	for _, e := range r.refuse {
		bad := r.body
		e.edit(&bad)
		_, err := pinIssue(bad, ca.AsSigner())
		fmt.Fprintf(w, "refused %s: %s\n", e.name, pinErr(err))
	}
	_, err = pinIssue(r.body, failingSigner{ca.Public()})
	fmt.Fprintf(w, "signer fails: %s\n", pinErr(err))
}

// TestRowPinGolden renders every row and compares it with the golden
// file line by line.
func TestRowPinGolden(t *testing.T) {
	ca, _ := keys(t)
	alice := BoundSubject{Name: "alice", KeyID: "k-alice"}
	bob := BoundSubject{Name: "bob", KeyID: "k-bob"}
	subjectKey := sharedrsa.PublicKey{N: big.NewInt(0xc0ffef), E: big.NewInt(0x10001)}
	reversed := func(nb, na *clock.Time) { *nb, *na = 900, 10 }
	rev := Revocation{Issuer: "RA", IssuedAt: 7, Group: "G_write", M: 2, Subjects: []BoundSubject{alice, bob}, EffectiveAt: 8}

	var w strings.Builder
	pinRow[Identity]{name: "identity",
		body: Identity{Issuer: "CA1", IssuedAt: 7, Subject: "alice", SubjectKey: NewKeyInfo(subjectKey),
			KeyID: subjectKey.KeyID(), NotBefore: 10, NotAfter: 900},
		tamper: func(c *Identity) { c.Subject = "mallory" },
		refuse: []pinEdit[Identity]{
			{"no subject", func(c *Identity) { c.Subject = "" }},
			{"no issuer", func(c *Identity) { c.Issuer = "" }},
			{"reversed", func(c *Identity) { reversed(&c.NotBefore, &c.NotAfter) }},
			{"key ID of another key", func(c *Identity) { c.KeyID = "k-other" }},
			{"unparsable key", func(c *Identity) { c.SubjectKey.N = "zz" }},
		}}.pin(t, &w, ca)
	pinRow[Attribute]{name: "attribute",
		body:   Attribute{Issuer: "AA", IssuedAt: 7, Group: "G_read", Subject: alice, NotBefore: 10, NotAfter: 900},
		tamper: func(c *Attribute) { c.Group = "G_write" },
		refuse: []pinEdit[Attribute]{
			{"no group", func(c *Attribute) { c.Group = "" }},
			{"no subject", func(c *Attribute) { c.Subject.Name = "" }},
			{"reversed", func(c *Attribute) { reversed(&c.NotBefore, &c.NotAfter) }},
		}}.pin(t, &w, ca)
	pinRow[ThresholdAttribute]{name: "threshold attribute",
		body: ThresholdAttribute{Issuer: "AA", IssuedAt: 7, Group: "G_write", M: 2,
			Subjects: []BoundSubject{alice, bob}, NotBefore: 10, NotAfter: 900},
		tamper: func(c *ThresholdAttribute) { c.M = 1 },
		refuse: []pinEdit[ThresholdAttribute]{
			{"no group", func(c *ThresholdAttribute) { c.Group = "" }},
			{"no subjects", func(c *ThresholdAttribute) { c.Subjects = nil }},
			{"threshold zero", func(c *ThresholdAttribute) { c.M = 0 }},
			{"threshold above subjects", func(c *ThresholdAttribute) { c.M = 3 }},
			{"reversed", func(c *ThresholdAttribute) { reversed(&c.NotBefore, &c.NotAfter) }},
			{"unbound subject", func(c *ThresholdAttribute) {
				c.Subjects = []BoundSubject{alice, {Name: "bob"}}
			}},
			{"unnamed subject", func(c *ThresholdAttribute) {
				c.Subjects = []BoundSubject{alice, {KeyID: "k-bob"}}
			}},
			{"duplicate subject", func(c *ThresholdAttribute) {
				c.Subjects = []BoundSubject{alice, {Name: "alice", KeyID: "k-bob"}}
			}},
		}}.pin(t, &w, ca)
	pinRow[GroupLink]{name: "group link",
		body:   GroupLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_write", NotBefore: 10, NotAfter: 900},
		tamper: func(c *GroupLink) { c.Sup = "G_read" },
		refuse: []pinEdit[GroupLink]{
			{"no sub", func(c *GroupLink) { c.Sub = "" }},
			{"no sup", func(c *GroupLink) { c.Sup = "" }},
			{"self link", func(c *GroupLink) { c.Sup = c.Sub }},
			{"reversed", func(c *GroupLink) { reversed(&c.NotBefore, &c.NotAfter) }},
		}}.pin(t, &w, ca)
	pinRow[IdentityRevocation]{name: "identity revocation",
		body:   IdentityRevocation{Issuer: "CA1", IssuedAt: 7, Subject: "alice", KeyID: "k-alice", EffectiveAt: 8},
		tamper: func(c *IdentityRevocation) { c.EffectiveAt = 1 },
		refuse: []pinEdit[IdentityRevocation]{
			{"no subject", func(c *IdentityRevocation) { c.Subject = "" }},
			{"no key", func(c *IdentityRevocation) { c.KeyID = "" }},
		}}.pin(t, &w, ca)
	pinRow[Revocation]{name: "revocation",
		body:   rev,
		tamper: func(c *Revocation) { c.Group = "G_read" },
		refuse: []pinEdit[Revocation]{
			{"no group", func(c *Revocation) { c.Group = "" }},
			{"no subjects", func(c *Revocation) { c.Subjects = nil }},
		}}.pin(t, &w, ca)
	pinRow[Delegation]{name: "delegation",
		body: Delegation{Issuer: "AA", IssuedAt: 7, Delegator: "alice", Subject: bob, Group: "G_read",
			Depth: 1, Perms: "read", NotBefore: 10, NotAfter: 900},
		tamper: func(c *Delegation) { c.Perms = "*" },
		refuse: []pinEdit[Delegation]{
			{"unnamed subject", func(c *Delegation) { c.Subject.Name = "" }},
			{"unbound subject", func(c *Delegation) { c.Subject.KeyID = "" }},
			{"no group", func(c *Delegation) { c.Group = "" }},
			{"no perms", func(c *Delegation) { c.Perms = "" }},
			{"negative depth", func(c *Delegation) { c.Depth = -1 }},
			{"self-delegation", func(c *Delegation) { c.Delegator = "bob" }},
			{"separator in delegator", func(c *Delegation) { c.Delegator = "carol>alice" }},
			{"separator in subject", func(c *Delegation) { c.Subject.Name = "alice>bob" }},
			{"reversed", func(c *Delegation) { reversed(&c.NotBefore, &c.NotAfter) }},
		}}.pin(t, &w, ca)
	pinRow[GroupGraphLink]{name: "group-graph link",
		body:   GroupGraphLink{Issuer: "AA", IssuedAt: 7, Sub: "G_sub", Sup: "G_read", Depth: 2, NotBefore: 10, NotAfter: 900},
		tamper: func(c *GroupGraphLink) { c.Depth = 5 },
		refuse: []pinEdit[GroupGraphLink]{
			{"no sub", func(c *GroupGraphLink) { c.Sub = "" }},
			{"no sup", func(c *GroupGraphLink) { c.Sup = "" }},
			{"self link", func(c *GroupGraphLink) { c.Sup = c.Sub }},
			{"negative depth", func(c *GroupGraphLink) { c.Depth = -1 }},
			{"reversed", func(c *GroupGraphLink) { reversed(&c.NotBefore, &c.NotAfter) }},
		}}.pin(t, &w, ca)
	pinRow[CRL]{name: "crl",
		body:   CRL{Issuer: "RA", IssuedAt: 9, Seq: 1, Entries: []Signed[Revocation]{{Cert: rev, SignerKey: "k-ra", SigS: "a6"}}},
		tamper: func(c *CRL) { c.Seq = 2 },
	}.pin(t, &w, ca)
	got := w.String()

	want, err := os.ReadFile(rowPinGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", rowPinGoldenFile, i+1, g, w)
			}
		}
	}
}
