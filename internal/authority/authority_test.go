package authority

import (
	"bytes"
	"errors"
	"math/big"
	"sync"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// testEstablish caches one dealer-established AA for the suite.
var (
	estOnce sync.Once
	estRes  *EstablishResult
	estErr  error
)

func establishAA(t *testing.T) *EstablishResult {
	t.Helper()
	estOnce.Do(func() {
		estRes, estErr = EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clock.New(100))
	})
	if estErr != nil {
		t.Fatal(estErr)
	}
	return estRes
}

func subjects() []pki.BoundSubject {
	return []pki.BoundSubject{
		{Name: "User_D1", KeyID: "k1"},
		{Name: "User_D2", KeyID: "k2"},
		{Name: "User_D3", KeyID: "k3"},
	}
}

func TestDomainCAIssueIdentity(t *testing.T) {
	clk := clock.New(50)
	ca, err := NewDomainCA("CA1", 512, clk)
	if err != nil {
		t.Fatal(err)
	}
	user, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unregistered user: refused.
	if _, err := ca.IssueIdentity("User_D1", clock.NewInterval(0, 1000)); !errors.Is(err, errUnknownUser) {
		t.Errorf("unregistered: %v", err)
	}
	ca.Register("User_D1", user.Public())
	sc, err := ca.IssueIdentity("User_D1", clock.NewInterval(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cert.Issuer != "CA1" || sc.Cert.KeyID != user.KeyID() || sc.Cert.IssuedAt != 50 {
		t.Errorf("cert = %+v", sc.Cert)
	}
	if err := pki.Verify(sc, ca.Public(), 100); err != nil {
		t.Fatal(err)
	}
}

func TestCaseIIConsensusIssuance(t *testing.T) {
	est := establishAA(t)
	cert, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, est.AA.Public(), 100); err != nil {
		t.Fatal(err)
	}
	if cert.Cert.M != 2 || len(cert.Cert.Subjects) != 3 {
		t.Errorf("cert = %+v", cert.Cert)
	}
}

func TestCaseIIDomainDownBlocksIssuance(t *testing.T) {
	// n-of-n: one domain down ⇒ no certificate can be issued. This is the
	// structural enforcement of Requirement III.
	est, err := EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clock.New(100))
	if err != nil {
		t.Fatal(err)
	}
	est.Domains[1].SetDown(true)
	if _, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000)); !errors.Is(err, errDomainDown) {
		t.Fatalf("issuance with a down domain: %v", err)
	}
	est.Domains[1].SetDown(false)
	if _, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000)); err != nil {
		t.Fatalf("issuance after recovery: %v", err)
	}
}

func TestCaseIIConsentWithheld(t *testing.T) {
	res, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	veto := errors.New("against domain policy")
	domains := []*domainAgent{
		newDomainAgent("D1", res.Shares[0], nil),
		newDomainAgent("D2", res.Shares[1], func([]byte) error { return veto }),
		newDomainAgent("D3", res.Shares[2], nil),
	}
	aa := &CoalitionAA{name: "AA", pk: res.Public, domains: domains, clk: clock.New(100)}
	if _, err := aa.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000)); !errors.Is(err, errConsentWithheld) {
		t.Fatalf("issuance over a veto: %v", err)
	}
}

func TestCaseIIThresholdModeAvailability(t *testing.T) {
	// Section 3.3: with 2-of-3 sharing, one down domain no longer blocks.
	est, err := EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clock.New(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.AA.EnableThreshold(2); err != nil {
		t.Fatal(err)
	}
	est.Domains[2].SetDown(true)
	cert, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatalf("2-of-3 issuance with one down domain: %v", err)
	}
	if err := pki.Verify(cert, est.AA.Public(), 100); err != nil {
		t.Fatal(err)
	}
	// Two down domains exceed the tolerance.
	est.Domains[1].SetDown(true)
	if _, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000)); !errors.Is(err, sharedrsa.ErrQuorum) {
		t.Fatalf("1-of-3 availability: %v", err)
	}
}

// TestCaseIIOutageAndVeto crosses the two issuance modes with the two
// ways a domain withholds its partial — being down and vetoing the
// payload. n-of-n fails on the first domain that withholds; 2-of-3
// issues while a consenting quorum remains and fails with ErrQuorum
// below it.
func TestCaseIIOutageAndVeto(t *testing.T) {
	key, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	veto := func([]byte) error { return errors.New("against domain policy") }
	cases := []struct {
		name       string
		down, veto []int // domain indices
		nOfN, mOfN error // nil: issues a verifying certificate
	}{
		{"one down", []int{1}, nil, errDomainDown, nil},
		{"one vetoing", nil, []int{1}, errConsentWithheld, nil},
		{"down and veto below quorum", []int{1}, []int{2}, errDomainDown, sharedrsa.ErrQuorum},
	}
	for _, c := range cases {
		for _, threshold := range []bool{false, true} {
			mode, want := "n-of-n", c.nOfN
			if threshold {
				mode, want = "2-of-3", c.mOfN
			}
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				approve := make([]func([]byte) error, 3)
				for _, i := range c.veto {
					approve[i] = veto
				}
				domains := make([]*domainAgent, 3)
				for i := range domains {
					domains[i] = newDomainAgent([]string{"D1", "D2", "D3"}[i], key.Shares[i], approve[i])
				}
				aa := &CoalitionAA{name: "AA", pk: key.Public, domains: domains, clk: clock.New(100)}
				if threshold {
					if err := aa.EnableThreshold(2); err != nil {
						t.Fatal(err)
					}
				}
				for _, i := range c.down {
					domains[i].SetDown(true)
				}
				cert, err := aa.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
				if want != nil {
					if !errors.Is(err, want) {
						t.Fatalf("issuance: %v, want %v", err, want)
					}
					return
				}
				if err != nil {
					t.Fatalf("issuance: %v", err)
				}
				if err := pki.Verify(cert, aa.Public(), 100); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestIssueAttributeSingleSubject(t *testing.T) {
	est := establishAA(t)
	cert, err := est.AA.IssueAttribute("G_read", pki.BoundSubject{Name: "User_D3", KeyID: "k3"}, clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, est.AA.Public(), 100); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeThresholdByAA(t *testing.T) {
	est := establishAA(t)
	cert, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := est.AA.RevokeThreshold(cert, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(rev, est.AA.Public(), 200); err != nil {
		t.Fatal(err)
	}
	if rev.Cert.Group != "G_write" || rev.Cert.EffectiveAt != 200 {
		t.Errorf("revocation = %+v", rev.Cert)
	}
}

func TestRevocationAuthority(t *testing.T) {
	est := establishAA(t)
	ra, err := NewRA("RA", 512, clock.New(150))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := ra.Revoke(cert, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(rev, ra.Public(), 200); err != nil {
		t.Fatal(err)
	}
	if rev.Cert.Issuer != "RA" {
		t.Errorf("issuer = %s", rev.Cert.Issuer)
	}
}

func TestCaseILockBoxAA(t *testing.T) {
	clk := clock.New(100)
	pws := []string{"pw1", "pw2", "pw3"}
	aa, err := EstablishCaseI("AA", pws, 512, clk)
	if err != nil {
		t.Fatal(err)
	}
	// All passwords: issuance succeeds.
	cert, err := aa.IssueThreshold(pws, "G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, aa.Public(), 100); err != nil {
		t.Fatal(err)
	}
	// Missing a password: refused.
	if _, err := aa.IssueThreshold(pws[:2], "G_write", 2, subjects(), clock.NewInterval(50, 5000)); err == nil {
		t.Fatal("issuance without all passwords")
	}
	// Compromise: the attacker forges a certificate that verifies — the
	// Case I trust liability (E4).
	evil := aa.Compromise()
	forged, err := pki.Issue(pki.ThresholdAttribute{
		Issuer: "AA", IssuedAt: clk.Now(), Group: "G_write", M: 1,
		Subjects:  []pki.BoundSubject{{Name: "Mallory", KeyID: "km"}},
		NotBefore: 0, NotAfter: 9999,
	}, evil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(forged, aa.Public(), 100); err != nil {
		t.Fatal("forged certificate failed to verify — Case I liability not demonstrated")
	}
}

func TestCaseIIForgeryRequiresAllDomains(t *testing.T) {
	// The Case II contrast for E4: compromising any proper subset of
	// domains (stealing their shares) does not let the attacker sign.
	est := establishAA(t)
	payload := []byte("forged certificate payload")
	var partials []sharedrsa.PartialSignature
	for _, d := range est.Domains[:2] { // attacker got 2 of 3 shares
		p, err := sharedrsa.PartialSign(payload, est.AA.Public(), d.Share())
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	if _, err := sharedrsa.Combine(payload, est.AA.Public(), partials, 3); !errors.Is(err, sharedrsa.ErrBadSignature) {
		t.Fatalf("2-of-3 domain compromise forged a signature: %v", err)
	}
}

func TestEstablishDistributedSmall(t *testing.T) {
	// End-to-end establishment with the real Boneh–Franklin protocol at a
	// test-friendly size.
	est, err := Establish("AA", []string{"D1", "D2", "D3"}, 128, clock.New(100))
	if err != nil {
		t.Fatal(err)
	}
	if est.Keygen == nil || est.Keygen.Attempts == 0 {
		t.Error("keygen diagnostics missing")
	}
	cert, err := est.AA.IssueThreshold("G_write", 2, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, est.AA.Public(), 100); err != nil {
		t.Fatal(err)
	}
}

func TestEstablishValidation(t *testing.T) {
	if _, err := Establish("AA", []string{"D1"}, 128, clock.New(0)); err == nil {
		t.Error("single-domain establishment accepted")
	}
	if _, err := assemble("AA", []string{"D1", "D2"}, sharedrsa.PublicKey{}, nil, clock.New(0), nil); err == nil {
		t.Error("mismatched shares accepted")
	}
}

// sigOf keeps an issuance's signature value and error.
func sigOf[T any](sc pki.Signed[T], err error) (string, error) { return sc.SigS, err }

// TestConsentCoversSignedBytes: in both issuance modes, for every kind the
// coalition AA issues, each domain is asked to consent to exactly the
// bytes the returned signature verifies over — consent to a certificate
// is consent to its signed form, not to some other encoding of it.
func TestConsentCoversSignedBytes(t *testing.T) {
	key, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []bool{false, true} {
		mode, quorum := "n-of-n", 3
		if threshold {
			mode, quorum = "2-of-3", 2
		}
		t.Run(mode, func(t *testing.T) {
			var seen [][]byte // every approval request, in order
			domains := make([]*domainAgent, 3)
			for i := range domains {
				domains[i] = newDomainAgent([]string{"D1", "D2", "D3"}[i], key.Shares[i], func(msg []byte) error {
					seen = append(seen, bytes.Clone(msg))
					return nil
				})
			}
			aa := &CoalitionAA{name: "AA", pk: key.Public, domains: domains, clk: clock.New(100)}
			if threshold {
				if err := aa.EnableThreshold(2); err != nil {
					t.Fatal(err)
				}
			}
			validity := clock.NewInterval(50, 5000)
			subject := pki.BoundSubject{Name: "User_D1", KeyID: "k1"}
			var th pki.Signed[pki.ThresholdAttribute]
			for _, c := range []struct {
				name  string
				issue func() (string, error)
			}{
				{"threshold", func() (sigS string, err error) {
					th, err = aa.IssueThreshold("G_write", 2, subjects(), validity)
					return th.SigS, err
				}},
				{"attribute", func() (string, error) { return sigOf(aa.IssueAttribute("G_read", subject, validity)) }},
				{"group link", func() (string, error) { return sigOf(aa.IssueGroupLink("G_sub", "G_write", validity)) }},
				{"revocation", func() (string, error) { return sigOf(aa.RevokeThreshold(th, 200)) }},
				{"delegation", func() (string, error) { return sigOf(aa.IssueDelegation("", subject, "G_read", 1, "read", validity)) }},
				{"group-graph link", func() (string, error) { return sigOf(aa.IssueGroupGraphLink("G_sub", "G_read", 1, validity)) }},
			} {
				seen = nil
				sigS, err := c.issue()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sig, ok := new(big.Int).SetString(sigS, 16)
				if !ok {
					t.Fatalf("%s: signature %q is not hex", c.name, sigS)
				}
				if len(seen) < quorum {
					t.Errorf("%s: %d consents, want at least %d", c.name, len(seen), quorum)
				}
				for i, msg := range seen {
					if err := sharedrsa.Verify(msg, aa.Public(), sharedrsa.Signature{S: sig}); err != nil {
						t.Errorf("%s: consent %d was to bytes the signature does not cover: %v", c.name, i+1, err)
					}
				}
			}
		})
	}
}

// TestConsensusStopsAtFirstRefusal: in n-of-n issuance a domain that
// refuses or is down at index i fails the signature with its own error,
// the approval hooks of domains 0…i alone are asked, and no partial is
// computed — the shares after i have no exponent, so computing any of
// them would fail with a share error instead.
func TestConsensusStopsAtFirstRefusal(t *testing.T) {
	key, err := sharedrsa.DealerSplit(512, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"D1", "D2", "D3", "D4"}
	for _, c := range []struct {
		name string
		down bool
		want string
	}{
		{"refuses", false, "D2: authority: domain withheld consent: not this one"},
		{"down", true, "D2: authority: domain down"},
	} {
		t.Run(c.name, func(t *testing.T) {
			const at = 1
			asked := make([]int, len(names))
			domains := make([]*domainAgent, len(names))
			for i := range domains {
				share := key.Shares[i]
				if i > at {
					share = sharedrsa.Share{Index: share.Index} // no exponent
				}
				domains[i] = &domainAgent{Name: names[i], share: share, approve: func([]byte) error {
					asked[i]++
					if i == at && !c.down {
						return errors.New("not this one")
					}
					return nil
				}}
			}
			domains[at].SetDown(c.down)
			aa := &CoalitionAA{name: "AA", pk: key.Public, domains: domains, clk: clock.New(100)}
			_, err := aa.signer().Sign([]byte("threshold attribute payload"))
			if err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %q", err, c.want)
			}
			want := []int{1, 1, 0, 0}
			if c.down {
				want[at] = 0 // a down domain is never asked
			}
			for i := range asked {
				if asked[i] != want[i] {
					t.Errorf("domain %s asked %d times, want %d", names[i], asked[i], want[i])
				}
			}
		})
	}
}

// TestRedistributeKeepsKeyAndRefusesWhatCannotDeal: the AA's shares are
// dealt among a new membership under the unchanged key — stayers first,
// in order, with their approval hooks, then newcomers — and an AA with a
// down domain, or one issuing m-of-n, is refused with
// ErrNotRedistributable, leaving the caller to re-key.
func TestRedistributeKeepsKeyAndRefusesWhatCannotDeal(t *testing.T) {
	est, err := EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clock.New(100))
	if err != nil {
		t.Fatal(err)
	}
	vetoes := 0
	d2 := est.Domains[1]
	est.Domains[1] = newDomainAgent(d2.Name, d2.Share(), func([]byte) error { vetoes++; return errors.New("veto") })
	est.AA.domains[1] = est.Domains[1]
	next, err := est.AA.Redistribute([]string{"D1", "D2", "D4"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range next.AA.Domains() {
		names = append(names, d.Name)
	}
	if next.AA.Public().KeyID() != est.AA.Public().KeyID() || len(names) != 3 || names[0] != "D1" || names[1] != "D2" || names[2] != "D4" {
		t.Fatalf("redistributed AA: key changed %v, domains %v", next.AA.Public().KeyID() != est.AA.Public().KeyID(), names)
	}
	if _, err := next.AA.IssueThreshold("G", 1, subjects(), clock.NewInterval(50, 5000)); !errors.Is(err, errConsentWithheld) || vetoes != 1 {
		t.Errorf("D2's approval hook after the redistribution: %v, %d vetoes", err, vetoes)
	}
	next.Domains[1] = newDomainAgent("D2", next.Domains[1].Share(), nil)
	next.AA.domains[1] = next.Domains[1]
	cert, err := next.AA.IssueThreshold("G", 1, subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, est.AA.Public(), 100); err != nil {
		t.Errorf("issued by D1, D2 and D4 under the unchanged key: %v", err)
	}

	next.Domains[2].SetDown(true)
	if _, err := next.AA.Redistribute([]string{"D1", "D2"}); !errors.Is(err, ErrNotRedistributable) || !errors.Is(err, errDomainDown) {
		t.Errorf("redistribution with D4 down: %v", err)
	}
	next.Domains[2].SetDown(false)
	if err := next.AA.EnableThreshold(2); err != nil {
		t.Fatal(err)
	}
	if _, err := next.AA.Redistribute([]string{"D1", "D2"}); !errors.Is(err, ErrNotRedistributable) {
		t.Errorf("redistribution of an m-of-n AA: %v", err)
	}
}
