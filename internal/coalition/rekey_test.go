package coalition

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// observables is what a relying party or a caller can see of a
// coalition's membership state.
type observables struct {
	epoch   int
	domains []string
	certs   map[string][]byte
	revs    int
	anchors any
}

func observe(t *testing.T, c *Coalition, groups ...string) observables {
	t.Helper()
	crl, err := c.RA().PublishCRL()
	if err != nil {
		t.Fatal(err)
	}
	o := observables{epoch: c.Epoch(), domains: c.Domains(), certs: make(map[string][]byte),
		revs: len(crl.Cert.Entries), anchors: c.Anchors(0)}
	for _, g := range groups {
		cert, ok := c.Certificate(g)
		if !ok {
			t.Fatalf("no certificate for %s", g)
		}
		b, err := pki.Marshal(cert)
		if err != nil {
			t.Fatal(err)
		}
		o.certs[g] = b
	}
	return o
}

// TestUncommittedRekeyChangesNothing: a prepared join or leave that is
// never committed leaves every observable as it was — the keygen is the
// step that can fail, and it now runs before anything changes.
func TestUncommittedRekeyChangesNothing(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c)
	for _, g := range []string{"G_write", "G_read"} {
		if _, err := c.IssueThreshold(g, 2, users, clock.NewInterval(50, 50_000)); err != nil {
			t.Fatal(err)
		}
	}
	before := observe(t, c, "G_write", "G_read")
	if _, err := c.PrepareJoin("D4"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PrepareLeave("D3"); err != nil {
		t.Fatal(err)
	}
	if after := observe(t, c, "G_write", "G_read"); !reflect.DeepEqual(after, before) {
		t.Errorf("uncommitted prepares changed the coalition:\nbefore %+v\nafter  %+v", before, after)
	}
	// The domain a prepared join names can still join.
	if _, err := c.Join("D4"); err != nil {
		t.Errorf("join after an uncommitted prepare: %v", err)
	}
}

// formFour is formCoalition with a fourth domain, D4, formed in.
func formFour(t *testing.T) (*Coalition, *clock.Clock) {
	t.Helper()
	clk := clock.New(100)
	c, err := Form("genetics", []string{"D1", "D2", "D3", "D4"}, Config{KeyBits: 512}, clk)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// sharers lists the domains the AA's key is shared among, sorted.
func sharers(c *Coalition) []string {
	var out []string
	for _, da := range c.AA().Domains() {
		out = append(out, da.Name)
	}
	slices.Sort(out)
	return out
}

// TestCommitAfterConcurrentChange: a leave prepared (re-keyed, its
// departing domain down) before another change committed is re-keyed at
// its commit among the membership that exists then, not among the one
// its prepared key was shared for.
func TestCommitAfterConcurrentChange(t *testing.T) {
	c, clk := formFour(t)
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	down(t, c, "D4")
	d4, err := c.PrepareLeave("D4")
	if err != nil {
		t.Fatal(err)
	}
	if d4.from != nil {
		t.Fatal("a leave whose departing domain is down was prepared as a redistribution")
	}
	prepared := d4.est.AA.Public()
	if _, err := c.Join("D5"); err != nil {
		t.Fatal(err)
	}
	down(t, c, "D4")
	report, err := c.Commit(d4)
	if err != nil {
		t.Fatalf("commit of the stale leave: %v", err)
	}
	if report.Epoch != 3 || report.Domains != 4 || report.CertsReissued != 1 || report.Redistributed {
		t.Errorf("report = %+v, want a re-key at epoch 3, 4 domains, 1 re-issued", report)
	}
	if got, want := sharers(c), []string{"D1", "D2", "D3", "D5"}; !slices.Equal(got, want) {
		t.Errorf("AA key shared among %v, want %v", got, want)
	}
	if c.AA().Public().KeyID() == prepared.KeyID() {
		t.Error("commit installed the key prepared for D1–D3")
	}
	cert, err := c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.VerifyThresholdAttribute(cert, c.AA().Public(), clk.Now()); err != nil {
		t.Errorf("certificate issued after the commit: %v", err)
	}

	// A Rekey commits once: after D4 joins again, the membership its
	// leave was committed from is back, and a second commit must not
	// apply the leave again.
	if _, err := c.Join("D4"); err != nil {
		t.Fatal(err)
	}
	epoch := c.Epoch()
	if _, err := c.Commit(d4); !errors.Is(err, errRekeyCommitted) {
		t.Errorf("second commit of one leave: %v, want errRekeyCommitted", err)
	}
	if got := c.Domains(); !slices.Contains(got, "D4") || c.Epoch() != epoch {
		t.Errorf("after the refused second commit: domains %v, epoch %d (was %d)", got, c.Epoch(), epoch)
	}

	// Commit re-checks what prepare checked.
	again, err := c.PrepareJoin("D6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("D6"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(again); !errors.Is(err, errDuplicateDomain) {
		t.Errorf("second commit of a join of D6: %v, want errDuplicateDomain", err)
	}
	gone, err := c.PrepareLeave("D6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("D6"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(gone); !errors.Is(err, errUnknownDomain) {
		t.Errorf("second commit of a leave of D6: %v, want errUnknownDomain", err)
	}
}

// TestCommitRechecksLastDomains: two leaves prepared on three domains
// cannot both commit.
func TestCommitRechecksLastDomains(t *testing.T) {
	c, _ := formCoalition(t)
	d2, err := c.PrepareLeave("D2")
	if err != nil {
		t.Fatal(err)
	}
	d3, err := c.PrepareLeave("D3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(d3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(d2); !errors.Is(err, errLastDomains) {
		t.Errorf("commit of a leave down to one domain: %v, want errLastDomains", err)
	}
	if got := c.Domains(); !slices.Equal(got, []string{"D1", "D2"}) || c.Epoch() != 2 {
		t.Errorf("after the refused commit: domains %v, epoch %d", got, c.Epoch())
	}
}

// TestCommitAfterConcurrentChangeRedistributes is the cooperative
// counterpart: a join whose shares were dealt before another change
// committed is dealt again at its commit, from the shares held then and
// among the membership that exists then, under the unchanged key.
func TestCommitAfterConcurrentChangeRedistributes(t *testing.T) {
	c, clk := formCoalition(t)
	users := enrollThree(t, c)
	key := c.AA().Public()
	d4, err := c.PrepareJoin("D4")
	if err != nil {
		t.Fatal(err)
	}
	if d4.from == nil {
		t.Fatal("a join every member is up for was prepared as a re-key")
	}
	if _, err := c.Join("D5"); err != nil {
		t.Fatal(err)
	}
	report, err := c.Commit(d4)
	if err != nil {
		t.Fatalf("commit of the stale join: %v", err)
	}
	if !report.Redistributed || report.Epoch != 3 || report.Domains != 5 || report.CertsReissued != 0 {
		t.Errorf("report = %+v, want redistributed at epoch 3 among 5, nothing re-issued", report)
	}
	if got, want := sharers(c), []string{"D1", "D2", "D3", "D4", "D5"}; !slices.Equal(got, want) {
		t.Errorf("AA key shared among %v, want %v", got, want)
	}
	cert, err := c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatalf("the five domains' shares do not sign: %v", err)
	}
	if err := pki.VerifyThresholdAttribute(cert, key, clk.Now()); err != nil {
		t.Errorf("certificate issued after the commit, under the unchanged key: %v", err)
	}
	if _, err := c.Commit(d4); !errors.Is(err, errRekeyCommitted) {
		t.Errorf("second commit of one join: %v, want errRekeyCommitted", err)
	}
}
