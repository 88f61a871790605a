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
		revs: len(crl.CRL.Entries), anchors: c.Anchors(0)}
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

// TestCommitAfterConcurrentChange: a join prepared before another change
// committed is re-keyed at its commit among the membership that exists
// then, not among the one its prepared key was shared for.
func TestCommitAfterConcurrentChange(t *testing.T) {
	c, clk := formCoalition(t)
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	d4, err := c.PrepareJoin("D4")
	if err != nil {
		t.Fatal(err)
	}
	prepared := d4.est.AA.Public()
	if _, err := c.Join("D5"); err != nil {
		t.Fatal(err)
	}
	report, err := c.Commit(d4)
	if err != nil {
		t.Fatalf("commit of the stale join: %v", err)
	}
	if report.Epoch != 3 || report.Domains != 5 || report.CertsReissued != 1 {
		t.Errorf("report = %+v, want epoch 3, 5 domains, 1 re-issued", report)
	}
	var sharers []string
	for _, da := range c.AA().Domains() {
		sharers = append(sharers, da.Name)
	}
	slices.Sort(sharers)
	if want := []string{"D1", "D2", "D3", "D4", "D5"}; !slices.Equal(sharers, want) {
		t.Errorf("AA key shared among %v, want %v", sharers, want)
	}
	if c.AA().Public().KeyID() == prepared.KeyID() {
		t.Error("commit installed the key prepared for D1–D4")
	}
	cert, err := c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.VerifyThresholdAttribute(cert, c.AA().Public(), clk.Now()); err != nil {
		t.Errorf("certificate issued after the commit: %v", err)
	}

	// A Rekey commits once: after D4 leaves, the membership its join was
	// committed for is back, and a second commit must not reinstall the
	// revoked AA and CA keys.
	installed := c.AA().Public()
	if _, err := c.Leave("D4"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(d4); !errors.Is(err, ErrRekeyCommitted) {
		t.Errorf("second commit of one join: %v, want ErrRekeyCommitted", err)
	}
	if got := c.Domains(); slices.Contains(got, "D4") || c.AA().Public().KeyID() == installed.KeyID() {
		t.Errorf("after the refused second commit: domains %v, AA key reinstalled %v", got, c.AA().Public().KeyID() == installed.KeyID())
	}

	// Commit re-checks what prepare checked.
	again, err := c.PrepareJoin("D6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("D6"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(again); !errors.Is(err, ErrDuplicateDomain) {
		t.Errorf("second commit of a join of D6: %v, want ErrDuplicateDomain", err)
	}
	gone, err := c.PrepareLeave("D6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("D6"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(gone); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("second commit of a leave of D6: %v, want ErrUnknownDomain", err)
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
	if _, err := c.Commit(d2); !errors.Is(err, ErrLastDomains) {
		t.Errorf("commit of a leave down to one domain: %v, want ErrLastDomains", err)
	}
	if got := c.Domains(); !slices.Equal(got, []string{"D1", "D2"}) || c.Epoch() != 2 {
		t.Errorf("after the refused commit: domains %v, epoch %d", got, c.Epoch())
	}
}
