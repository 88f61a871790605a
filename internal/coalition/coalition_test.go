package coalition

import (
	"context"
	"errors"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

func formCoalition(t *testing.T) (*Coalition, *clock.Clock) {
	t.Helper()
	clk := clock.New(100)
	c, err := Form("genetics", []string{"D1", "D2", "D3"}, Config{KeyBits: 512}, clk)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func TestFormValidation(t *testing.T) {
	if _, err := Form("x", []string{"D1"}, Config{}, clock.New(0)); err == nil {
		t.Error("single-domain coalition accepted")
	}
}

func TestFormAndEnroll(t *testing.T) {
	c, _ := formCoalition(t)
	if got := c.Domains(); len(got) != 3 || got[0] != "D1" {
		t.Fatalf("Domains = %v", got)
	}
	if c.Epoch() != 1 {
		t.Errorf("epoch = %d", c.Epoch())
	}
	idc, err := c.AddUser("D1", "alice", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if idc.Cert.Issuer != "CA_D1" || idc.Cert.Subject != "alice" {
		t.Errorf("cert = %+v", idc.Cert)
	}
	if _, err := c.AddUser("D9", "bob", clock.NewInterval(0, 1)); !errors.Is(err, errUnknownDomain) {
		t.Errorf("unknown domain: %v", err)
	}
	if _, err := c.UserKey("alice"); err != nil {
		t.Errorf("UserKey(alice): %v", err)
	}
	if _, err := c.UserKey("nobody"); !errors.Is(err, errUnknownUser) {
		t.Errorf("UserKey(nobody): %v", err)
	}
	if _, err := c.IdentityOf("alice", clock.NewInterval(50, 5000)); err != nil {
		t.Errorf("IdentityOf: %v", err)
	}
	if _, err := c.IdentityOf("nobody", clock.NewInterval(0, 1)); !errors.Is(err, errUnknownUser) {
		t.Errorf("IdentityOf(nobody): %v", err)
	}
}

func enrollThree(t *testing.T, c *Coalition) []string {
	t.Helper()
	users := []string{"u1", "u2", "u3"}
	for i, u := range users {
		domain := c.Domains()[i%len(c.Domains())]
		if _, err := c.AddUser(domain, u, clock.NewInterval(50, 50_000)); err != nil {
			t.Fatal(err)
		}
	}
	return users
}

func TestIssueThresholdTracksCert(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c)
	cert, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Certificate("G_write")
	if !ok || got.SigS != cert.SigS {
		t.Error("certificate not tracked")
	}
	if _, ok := c.Certificate("G_missing"); ok {
		t.Error("phantom certificate")
	}
	if _, err := c.IssueThreshold("G_x", 1, []string{"ghost"}, clock.NewInterval(0, 1)); !errors.Is(err, errUnknownUser) {
		t.Errorf("unknown user: %v", err)
	}
}

// down marks domain's share holder in the current AA down: a change it
// must deal in cannot redistribute the shares, and re-keys.
func down(t *testing.T, c *Coalition, domain string) {
	t.Helper()
	for _, d := range c.AA().Domains() {
		if d.Name == domain {
			d.SetDown(true)
			return
		}
	}
	t.Fatalf("no share holder %s", domain)
}

// TestJoinRekeysAndReissues: a join while a member is down cannot be
// dealt, so the AA re-keys among the members and the newcomer, and every
// outstanding certificate is revoked and re-issued under the new key.
func TestJoinRekeysAndReissues(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	oldKey := c.AA().Public()

	down(t, c, "D2")
	report, err := c.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 2 || report.Domains != 4 || report.Redistributed {
		t.Errorf("report = %+v", report)
	}
	if report.CertsRevoked != 2 || report.CertsReissued != 2 {
		t.Errorf("revoked/reissued = %d/%d, want 2/2", report.CertsRevoked, report.CertsReissued)
	}
	if oldKey.KeyID() == c.AA().Public().KeyID() {
		t.Error("AA key unchanged after join")
	}
	// Both revocations reach the RA, whose CRL relying servers apply.
	crl, err := c.RA().PublishCRL()
	if err != nil {
		t.Fatal(err)
	}
	if len(crl.Cert.Entries) != 2 {
		t.Errorf("CRL entries = %d, want 2", len(crl.Cert.Entries))
	}
	// The re-issued certificate verifies under the NEW key and not the old.
	cert, ok := c.Certificate("G_write")
	if !ok {
		t.Fatal("certificate lost in rekey")
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Errorf("re-issued cert under new key: %v", err)
	}
	if err := pki.Verify(cert, oldKey, 100); err == nil {
		t.Error("re-issued cert verifies under the old key")
	}
	if _, err := c.Join("D4"); !errors.Is(err, errDuplicateDomain) {
		t.Errorf("duplicate join: %v", err)
	}
}

// TestUncooperativeLeaveRekeysAndReissues: a leave whose departing
// domain is down cannot be dealt, so the AA re-keys among the domains
// that stay and every outstanding certificate is revoked and re-issued.
func TestUncooperativeLeaveRekeysAndReissues(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	oldKey := c.AA().Public()

	down(t, c, "D3")
	report, err := c.Leave("D3")
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 2 || report.Domains != 2 || report.Redistributed {
		t.Errorf("report = %+v", report)
	}
	if report.CertsRevoked != 2 || report.CertsReissued != 2 {
		t.Errorf("revoked/reissued = %d/%d, want 2/2", report.CertsRevoked, report.CertsReissued)
	}
	if oldKey.KeyID() == c.AA().Public().KeyID() {
		t.Error("AA key unchanged after an uncooperative leave")
	}
	// Both revocations reach the RA, whose CRL relying servers apply.
	crl, err := c.RA().PublishCRL()
	if err != nil {
		t.Fatal(err)
	}
	if len(crl.Cert.Entries) != 2 {
		t.Errorf("CRL entries = %d, want 2", len(crl.Cert.Entries))
	}
	// The re-issued certificate verifies under the NEW key and not the old.
	cert, ok := c.Certificate("G_write")
	if !ok {
		t.Fatal("certificate lost in rekey")
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Errorf("re-issued cert under new key: %v", err)
	}
	if err := pki.Verify(cert, oldKey, 100); err == nil {
		t.Error("re-issued cert verifies under the old key")
	}
	if _, err := c.Leave("D3"); !errors.Is(err, errUnknownDomain) {
		t.Errorf("second leave: %v", err)
	}
}

// TestCooperativeJoinKeepsKeyAndCertificates: when every member is up,
// a join deals the newcomer a share of the unchanged key, so nothing is
// revoked or re-issued and the outstanding certificates stay valid.
func TestCooperativeJoinKeepsKeyAndCertificates(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c)
	for _, g := range []string{"G_write", "G_read"} {
		if _, err := c.IssueThreshold(g, 2, users, clock.NewInterval(50, 50_000)); err != nil {
			t.Fatal(err)
		}
	}
	before := observe(t, c, "G_write", "G_read")
	oldKey := c.AA().Public()

	report, err := c.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Redistributed || report.Epoch != 2 || report.Domains != 4 ||
		report.CertsRevoked != 0 || report.CertsReissued != 0 || report.KeygenAttempts != 0 {
		t.Errorf("report = %+v, want redistributed at epoch 2 among 4, nothing revoked or re-issued", report)
	}
	if c.AA().Public().KeyID() != oldKey.KeyID() {
		t.Error("AA key changed by a cooperative join")
	}
	after := observe(t, c, "G_write", "G_read")
	if after.revs != 0 {
		t.Errorf("CRL entries = %d, want 0", after.revs)
	}
	for g, b := range before.certs {
		if string(after.certs[g]) != string(b) {
			t.Errorf("%s certificate changed by a cooperative join", g)
		}
	}
	// The four domains sign under the unchanged key.
	cert, err := c.IssueThreshold("G_new", 1, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, oldKey, 100); err != nil {
		t.Errorf("certificate issued by the four domains: %v", err)
	}
	if _, err := c.Join("D4"); !errors.Is(err, errDuplicateDomain) {
		t.Errorf("duplicate join: %v", err)
	}
}

// TestCooperativeLeaveReissuesOnlyDepartedSubjects: a cooperative leave
// revokes and re-issues exactly the certificates that named the
// departing domain's users, without them; the rest stay valid.
func TestCooperativeLeaveReissuesOnlyDepartedSubjects(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c) // u1→D1, u2→D2, u3→D3
	validity := clock.NewInterval(50, 50_000)
	if _, err := c.IssueThreshold("G_write", 3, users, validity); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IssueThreshold("G_pair", 2, users[:2], validity); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"u1", "u3"} {
		if _, err := c.IssueSelective("G_solo_"+u, u, validity); err != nil {
			t.Fatal(err)
		}
	}
	before := observe(t, c, "G_write", "G_pair")
	solo, _ := c.SelectiveCertificate("G_solo_u1")
	oldKey := c.AA().Public()

	report, err := c.Leave("D3")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Redistributed || report.Domains != 2 || report.CertsRevoked != 2 || report.CertsReissued != 1 {
		t.Errorf("report = %+v, want redistributed, 2 revoked (G_write, G_solo_u3), 1 re-issued (G_write)", report)
	}
	if c.AA().Public().KeyID() != oldKey.KeyID() {
		t.Error("AA key changed by a cooperative leave")
	}
	after := observe(t, c, "G_write", "G_pair")
	if string(after.certs["G_pair"]) != string(before.certs["G_pair"]) {
		t.Error("G_pair, which names no departed user, was re-issued")
	}
	cert, _ := c.Certificate("G_write")
	if len(cert.Cert.Subjects) != 2 || cert.Cert.M != 2 {
		t.Errorf("G_write re-issued over %d subjects at m=%d, want u1, u2 at 2", len(cert.Cert.Subjects), cert.Cert.M)
	}
	if err := pki.Verify(cert, oldKey, 100); err != nil {
		t.Errorf("re-issued G_write under the unchanged key: %v", err)
	}
	if got, ok := c.SelectiveCertificate("G_solo_u1"); !ok || got.SigS != solo.SigS {
		t.Error("u1's selective certificate changed")
	}
	if _, ok := c.SelectiveCertificate("G_solo_u3"); ok {
		t.Error("the departed user's selective certificate survived")
	}
	if after.revs != 2 {
		t.Errorf("CRL entries = %d, want 2", after.revs)
	}
}

func TestLeaveDropsUsersAndClampsThreshold(t *testing.T) {
	c, _ := formCoalition(t)
	// u1 in D1, u2 in D2, u3 in D3.
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 3, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	report, err := c.Leave("D3")
	if err != nil {
		t.Fatal(err)
	}
	if report.Domains != 2 {
		t.Errorf("domains = %d", report.Domains)
	}
	cert, ok := c.Certificate("G_write")
	if !ok {
		t.Fatal("certificate dropped")
	}
	if len(cert.Cert.Subjects) != 2 {
		t.Errorf("subjects = %d, want 2 (u3 left with D3)", len(cert.Cert.Subjects))
	}
	if cert.Cert.M != 2 {
		t.Errorf("threshold = %d, want clamped to 2", cert.Cert.M)
	}
	if _, err := c.Leave("D9"); !errors.Is(err, errUnknownDomain) {
		t.Errorf("leave unknown: %v", err)
	}
	if _, err := c.Leave("D1"); !errors.Is(err, errLastDomains) {
		t.Errorf("leave below 2: %v", err)
	}
}

// TestRekeyEndToEndWithServer verifies the operational meaning of a
// re-key: after an uncooperative leave, a server anchored at the old
// epoch rejects the re-issued certificates, and a re-anchored server
// accepts them.
func TestRekeyEndToEndWithServer(t *testing.T) {
	c, clk := formCoalition(t)
	users := enrollThree(t, c)
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	oldServer := newServerFor(t, c, clk)
	req := buildWrite(t, c, clk, []byte("epoch1"), "u1", "u2")
	if _, err := oldServer.Authorize(context.Background(), req); err != nil {
		t.Fatalf("epoch-1 write: %v", err)
	}

	down(t, c, "D3")
	if _, err := c.Leave("D3"); err != nil {
		t.Fatal(err)
	}
	req2 := buildWrite(t, c, clk, []byte("epoch2"), "u1", "u2")
	if _, err := oldServer.Authorize(context.Background(), req2); err == nil {
		t.Fatal("old-epoch server accepted a new-epoch certificate")
	}
	newServer := newServerFor(t, c, clk)
	if _, err := newServer.Authorize(context.Background(), req2); err != nil {
		t.Fatalf("re-anchored server rejected epoch-2 write: %v", err)
	}
}

// TestRedistributionEndToEndWithServer is the cooperative counterpart:
// a join overlaps, so a server anchored before it still accepts the
// unchanged certificate; after a cooperative leave, a re-anchored server
// no longer trusts the departed domain's CA, so its user is denied.
func TestRedistributionEndToEndWithServer(t *testing.T) {
	c, clk := formCoalition(t)
	users := enrollThree(t, c) // u3 in D3
	if _, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	oldServer := newServerFor(t, c, clk)
	if _, err := c.Join("D4"); err != nil {
		t.Fatal(err)
	}
	req := buildWrite(t, c, clk, []byte("joined"), "u1", "u3")
	if _, err := oldServer.Authorize(context.Background(), req); err != nil {
		t.Fatalf("a server anchored before the join refused the unchanged certificate: %v", err)
	}
	if _, err := newServerFor(t, c, clk).Authorize(context.Background(), req); err != nil {
		t.Fatalf("re-anchored server after the join: %v", err)
	}

	if _, err := c.Leave("D3"); err != nil {
		t.Fatal(err)
	}
	newServer := newServerFor(t, c, clk)
	if _, err := newServer.Authorize(context.Background(), buildWrite(t, c, clk, []byte("left"), "u1", "u2")); err != nil {
		t.Fatalf("re-anchored server after the leave: %v", err)
	}
	if _, err := newServer.Authorize(context.Background(), req); err == nil {
		t.Fatal("a request co-signed by the departed domain's user was approved after its leave")
	}
}

func newServerFor(t *testing.T, c *Coalition, clk *clock.Clock) *authz.Server {
	t.Helper()
	store := acl.NewStore(clk)
	objACL, err := acl.NewACL(
		acl.Entry{Group: "G_write", Perms: []acl.Permission{acl.Write}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("O", objACL, []byte("v1"), "G_policy"); err != nil {
		t.Fatal(err)
	}
	return authz.NewServer("P", clk, c.Anchors(0), store, nil)
}

func buildWrite(t *testing.T, c *Coalition, clk *clock.Clock, payload []byte, signers ...string) authz.AccessRequest {
	t.Helper()
	cert, ok := c.Certificate("G_write")
	if !ok {
		t.Fatal("no G_write certificate")
	}
	req := authz.AccessRequest{Threshold: cert}
	for _, u := range signers {
		idc, err := c.IdentityOf(u, clock.NewInterval(50, 50_000))
		if err != nil {
			t.Fatal(err)
		}
		kp, err := c.UserKey(u)
		if err != nil {
			t.Fatal(err)
		}
		r, err := authz.SignRequest(u, clk.Now(), acl.Write, "O", payload, kp)
		if err != nil {
			t.Fatal(err)
		}
		req.Identities = append(req.Identities, idc)
		req.Requests = append(req.Requests, r)
	}
	return req
}

func TestDistributedFormSmall(t *testing.T) {
	clk := clock.New(100)
	c, err := Form("bf", []string{"D1", "D2", "D3"}, Config{KeyBits: 128, DistributedKeygen: true}, clk)
	if err != nil {
		t.Fatal(err)
	}
	users := enrollThree(t, c)
	cert, err := c.IssueThreshold("G_write", 2, users, clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Fatal(err)
	}
	// A cooperative join redistributes the Boneh–Franklin shares: no
	// keygen, and the four domains sign under the unchanged key.
	report, err := c.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Redistributed || report.KeygenAttempts != 0 {
		t.Errorf("cooperative join report = %+v", report)
	}
	if cert, err = c.IssueThreshold("G_read", 1, users, clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Fatal(err)
	}
	// Re-key with the distributed protocol too.
	down(t, c, "D4")
	if report, err = c.Leave("D4"); err != nil {
		t.Fatal(err)
	}
	if report.KeygenAttempts == 0 {
		t.Error("distributed rekey should report keygen attempts")
	}
}

func TestAccessorsAndSelectiveLifecycle(t *testing.T) {
	c, _ := formCoalition(t)
	if c.RA() == nil {
		t.Error("RA missing")
	}
	users := enrollThree(t, c)
	cert, err := c.IssueSelective("G_solo", users[0], clock.NewInterval(50, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.Verify(cert, c.AA().Public(), 100); err != nil {
		t.Fatal(err)
	}
	got, ok := c.SelectiveCertificate("G_solo")
	if !ok || got.SigS != cert.SigS {
		t.Error("selective certificate not tracked")
	}
	if _, ok := c.SelectiveCertificate("G_none"); ok {
		t.Error("phantom selective certificate")
	}
	if _, err := c.IssueSelective("G_x", "ghost", clock.NewInterval(0, 1)); !errors.Is(err, errUnknownUser) {
		t.Errorf("selective for unknown user: %v", err)
	}

	// Identity revocation via the coalition.
	rev, err := c.RevokeUserIdentity(users[0])
	if err != nil {
		t.Fatal(err)
	}
	if rev.Cert.Subject != users[0] {
		t.Errorf("revocation subject = %q", rev.Cert.Subject)
	}
	if _, err := c.RevokeUserIdentity("ghost"); !errors.Is(err, errUnknownUser) {
		t.Errorf("revoke unknown user: %v", err)
	}

	// A cooperative join leaves the selective certificate as it is.
	report, err := c.Join("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.CertsRevoked != 0 || report.CertsReissued != 0 {
		t.Errorf("selective redistribution report = %+v", report)
	}
	if kept, ok := c.SelectiveCertificate("G_solo"); !ok || kept.SigS != cert.SigS {
		t.Error("selective certificate changed by a cooperative join")
	}
	// Rekey with a selective cert present: revoked and re-issued (user u1
	// is still a member; its domain remains).
	down(t, c, "D4")
	report, err = c.Leave("D4")
	if err != nil {
		t.Fatal(err)
	}
	if report.CertsRevoked != 1 || report.CertsReissued != 1 {
		t.Errorf("selective rekey report = %+v", report)
	}
	// The re-issued selective certificate verifies under the new key.
	fresh, ok := c.SelectiveCertificate("G_solo")
	if !ok {
		t.Fatal("selective certificate dropped in rekey")
	}
	if err := pki.Verify(fresh, c.AA().Public(), 100); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveDropsSelectiveOfDepartingUser(t *testing.T) {
	c, _ := formCoalition(t)
	users := enrollThree(t, c) // u1→D1, u2→D2, u3→D3
	if _, err := c.IssueSelective("G_solo", users[2], clock.NewInterval(50, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("D3"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.SelectiveCertificate("G_solo"); ok {
		t.Error("selective certificate of departed user survived")
	}
}

// TestMembershipChangeRevokesDisplaced: certificates a re-grant displaced
// stay live under the unchanged key until the group's revocation or a
// membership change revokes them — a leave the one naming a departed
// user, a re-key the rest — and none is re-issued. A certificate is
// displaced only while live: the group's revocation drops those it
// revoked, and a re-grant after it displaces nothing.
func TestMembershipChangeRevokesDisplaced(t *testing.T) {
	c, _ := formCoalition(t)
	enrollThree(t, c) // u1→D1, u2→D2, u3→D3
	validity := clock.NewInterval(50, 50_000)
	grant := func(users ...string) {
		t.Helper()
		for _, u := range users {
			if _, err := c.IssueThreshold("G_x", 1, []string{u}, validity); err != nil {
				t.Fatal(err)
			}
		}
	}
	revoked := func(want int) {
		t.Helper()
		revs, err := c.RevokeGroup("G_x")
		if err != nil || len(revs) != want {
			t.Fatalf("RevokeGroup(G_x): %d revocations, %v; want %d", len(revs), err, want)
		}
	}
	grant("u3", "u1", "u2")
	report, err := c.Leave("D3")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Redistributed || report.CertsRevoked != 1 || report.CertsReissued != 0 {
		t.Errorf("leave of D3: %+v, want redistributed, 1 revoked (u3's displaced grant), none re-issued", report)
	}
	down(t, c, "D2")
	if report, err = c.Join("D4"); err != nil {
		t.Fatal(err)
	}
	if report.Redistributed || report.CertsRevoked != 2 || report.CertsReissued != 1 {
		t.Errorf("re-key: %+v, want 2 revoked (G_x and u1's displaced grant), 1 re-issued", report)
	}
	if cert, ok := c.Certificate("G_x"); !ok || len(cert.Cert.Subjects) != 1 {
		t.Errorf("G_x after the re-key: %v, want the re-issued grant to u2", ok)
	}
	revoked(1)
	grant("u1", "u2")
	revoked(2)
	revoked(1)
}
