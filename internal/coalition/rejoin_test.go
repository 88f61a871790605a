package coalition

import (
	"errors"
	"sync"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// joinWithUser joins domain and enrolls user in it.
func joinWithUser(t *testing.T, c *Coalition, domain, user string) pki.Signed[pki.Identity] {
	t.Helper()
	if _, err := c.Join(domain); err != nil {
		t.Fatal(err)
	}
	idc, err := c.AddUser(domain, user, requestValidity(c.clk.Now()))
	if err != nil {
		t.Fatal(err)
	}
	return idc
}

// leaveAndJoin has domain leave and join again.
func leaveAndJoin(t *testing.T, c *Coalition, domain string) {
	t.Helper()
	if _, err := c.Leave(domain); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(domain); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinReadmitsCAKey: a domain that leaves and joins again holds the
// CA key it held before, anchored again under the CA's name, with no user
// enrolled: a departed user is unknown until enrolled again.
func TestRejoinReadmitsCAKey(t *testing.T) {
	c, clk := formCoalition(t)
	dave := joinWithUser(t, c, "D4", "dave")
	before := caKey(t, c, "D4")
	leaveAndJoin(t, c, "D4")
	after := caKey(t, c, "D4")
	if after.KeyID() != before.KeyID() {
		t.Fatalf("D4's CA key %s after the rejoin, want the key it held, %s", after.KeyID(), before.KeyID())
	}
	if got := c.Anchors(0).CAKeys["CA_D4"]; got.KeyID() != before.KeyID() {
		t.Errorf("anchored CA_D4 key %s, want %s", got.KeyID(), before.KeyID())
	}
	// The pre-leave certificate verifies again; it carries no authority
	// (the certificates that named dave were revoked at the leave).
	if err := pki.Verify(dave, after, clk.Now()); err != nil {
		t.Errorf("dave's pre-leave identity under the re-admitted key: %v", err)
	}
	if _, err := c.IdentityOf("dave", requestValidity(clk.Now())); !errors.Is(err, errUnknownUser) {
		t.Errorf("IdentityOf(dave) after D4 rejoined: %v, want errUnknownUser", err)
	}
	if _, err := c.AddUser("D4", "dave", requestValidity(clk.Now())); err != nil {
		t.Errorf("enrolling dave again after the rejoin: %v", err)
	}
}

// TestNeverSeenDomainDrawsKey: a domain the coalition has never seen
// draws a CA key no other domain holds.
func TestNeverSeenDomainDrawsKey(t *testing.T) {
	c, _ := formCoalition(t)
	joinWithUser(t, c, "D4", "dave")
	leaveAndJoin(t, c, "D4")
	if _, err := c.Join("D5"); err != nil {
		t.Fatal(err)
	}
	fresh := caKey(t, c, "D5")
	for _, d := range []string{"D1", "D2", "D3", "D4"} {
		if caKey(t, c, d).KeyID() == fresh.KeyID() {
			t.Errorf("D5, never seen, joined under %s's CA key", d)
		}
	}
}

// TestNamedUsersCAIsNotReadmitted: a CA one of whose users a certificate
// has named is not kept, so the domain rejoins under a new key: the RA's
// revocation of that certificate reaches no server, and the departed
// user's identity must not verify again. So too when a re-grant of the
// group to another user has displaced the certificate before the leave:
// the displaced one is still signed under the unchanged AA key.
func TestNamedUsersCAIsNotReadmitted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grant func(c *Coalition, v clock.Interval) error
	}{
		{"selective", func(c *Coalition, v clock.Interval) error {
			_, err := c.IssueSelective("G_dave", "dave", v)
			return err
		}},
		{"threshold", func(c *Coalition, v clock.Interval) error {
			_, err := c.IssueThreshold("G_dave", 1, []string{"dave"}, v)
			return err
		}},
		{"regranted", func(c *Coalition, v clock.Interval) error {
			if _, err := c.IssueThreshold("G_dave", 1, []string{"dave"}, v); err != nil {
				return err
			}
			if _, err := c.AddUser("D1", "alice", v); err != nil {
				return err
			}
			_, err := c.IssueThreshold("G_dave", 1, []string{"alice"}, v)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := formCoalition(t)
			dave := joinWithUser(t, c, "D4", "dave")
			named := caKey(t, c, "D4")
			if err := tc.grant(c, requestValidity(clk.Now())); err != nil {
				t.Fatal(err)
			}
			leaveAndJoin(t, c, "D4")
			if caKey(t, c, "D4").KeyID() == named.KeyID() {
				t.Fatal("D4 rejoined under the CA key of a user a certificate named")
			}
			if err := pki.Verify(dave, caKey(t, c, "D4"), clk.Now()); err == nil {
				t.Error("dave's pre-leave identity verifies under the rejoined CA key")
			}
		})
	}
}

// TestRevokedCAIsNotReadmitted: a CA that has revoked an identity is not
// kept, so its domain rejoins under a new key — also when the join was
// prepared, re-admitting the CA, before the revocation.
func TestRevokedCAIsNotReadmitted(t *testing.T) {
	c, clk := formCoalition(t)
	dave := joinWithUser(t, c, "D4", "dave")
	revoked := caKey(t, c, "D4")
	if _, err := c.RevokeUserIdentity("dave"); err != nil {
		t.Fatal(err)
	}
	leaveAndJoin(t, c, "D4")
	if caKey(t, c, "D4").KeyID() == revoked.KeyID() {
		t.Fatal("D4 rejoined under the CA key that revoked dave's identity")
	}
	if err := pki.Verify(dave, caKey(t, c, "D4"), clk.Now()); err == nil {
		t.Error("dave's revoked identity verifies under the rejoined CA key")
	}

	// A join prepared while D4 is out, its CA kept, draws no key; D4
	// then joins by another path, revokes an identity and leaves. The
	// stale join's commit must not re-admit the CA that revoked.
	if _, err := c.AddUser("D4", "erin", requestValidity(clk.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("D4"); err != nil {
		t.Fatal(err)
	}
	stale, err := c.PrepareJoin("D4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("D4"); err != nil {
		t.Fatal(err)
	}
	readmitted := caKey(t, c, "D4")
	if stale.ca != nil {
		t.Fatal("the join prepared while D4's CA was kept drew a key")
	}
	if _, err := c.AddUser("D4", "erin", requestValidity(clk.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RevokeUserIdentity("erin"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("D4"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(stale); err != nil {
		t.Fatal(err)
	}
	if caKey(t, c, "D4").KeyID() == readmitted.KeyID() {
		t.Error("a join prepared before the revocation re-admitted the CA that revoked erin's identity")
	}
}

// TestRejoinAlongsideOtherChanges: D4 leaves and rejoins while another
// domain's joins are prepared and committed and a member's CA revokes
// identities, from three goroutines (run with -race). D4's CA, which
// revokes nothing and whose users nothing names, keeps its key.
func TestRejoinAlongsideOtherChanges(t *testing.T) {
	c, clk := formCoalition(t)
	joinWithUser(t, c, "D4", "dave")
	key := caKey(t, c, "D4").KeyID()
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for range rounds {
			if _, err := c.Leave("D4"); err != nil {
				errs <- err
			}
			if _, err := c.Join("D4"); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range rounds {
			r, err := c.PrepareJoin("D5")
			if err == nil {
				_, err = c.Commit(r)
			}
			if err == nil {
				_, err = c.Leave("D5")
			}
			if err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range rounds {
			_, err := c.AddUser("D1", "erin", requestValidity(clk.Now()))
			if err == nil {
				_, err = c.RevokeUserIdentity("erin")
			}
			if err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := caKey(t, c, "D4").KeyID(); got != key {
		t.Errorf("D4's CA key %s after %d rejoins, want %s", got, rounds, key)
	}
}
