package authz

import (
	"context"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
)

// issueDelegation signs a delegation-link certificate for a fixture user
// under the coalition AA.
func (f *fixture) issueDelegation(t testing.TB, delegator, subject, group string, depth int, perms string) pki.Signed[pki.Delegation] {
	t.Helper()
	bound := pki.BoundSubject{Name: subject, KeyID: f.users[subject].KeyID()}
	cert, err := f.est.AA.IssueDelegation(delegator, bound, group, depth, perms, clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatalf("issue delegation %s>%s: %v", delegator, subject, err)
	}
	return cert
}

// delegatedReadRequest builds a delegation-backed read request signed by
// the chain's leaf subject.
func (f *fixture) delegatedReadRequest(t testing.TB, user string, cert pki.Signed[pki.Delegation]) AccessRequest {
	t.Helper()
	return f.delegatedReadOf(t, "O", user, cert)
}

// delegatedReadOf is delegatedReadRequest for an arbitrary object.
func (f *fixture) delegatedReadOf(t testing.TB, object, user string, cert pki.Signed[pki.Delegation]) AccessRequest {
	t.Helper()
	req := AccessRequest{Delegated: true, Delegation: cert}
	req.Identities = append(req.Identities, f.idCerts[user])
	r, err := SignRequest(user, f.clk.Now(), acl.Read, object, nil, f.users[user])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	return req
}

// TestDelegatedRequestFlow: a root grant authorizes its subject, a chain
// link authorizes the downstream subject with attenuated permissions, and
// the composed chain refuses ops dropped mid-chain.
func TestDelegatedRequestFlow(t *testing.T) {
	f := newFixture(t)
	srv := f.newServer(audit.NewLog())
	ctx := context.Background()
	root := f.issueDelegation(t, "", "User_D1", "G_read", 1, "read,write")
	if err := srv.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatalf("apply root delegation: %v", err)
	}
	dec, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D1", root))
	if err != nil {
		t.Fatalf("delegated read by root grantee: %v", err)
	}
	if !dec.Allowed || dec.Group != "G_read" {
		t.Fatalf("decision = %+v", dec)
	}
	link := f.issueDelegation(t, "User_D1", "User_D2", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: link}); err != nil {
		t.Fatalf("apply chain link: %v", err)
	}
	if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err != nil {
		t.Fatalf("delegated read through chain: %v", err)
	}
	// The wrong leaf certificate cannot authorize another user: User_D3
	// holds no chain.
	bad := f.issueDelegation(t, "", "User_D3", "G_read", 0, "read")
	if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D3", bad)); err == nil {
		t.Fatal("delegated read approved without an installed chain")
	}
	// Extending past the depth bound is refused at install time.
	beyond := f.issueDelegation(t, "User_D2", "User_D3", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: beyond}); err == nil {
		t.Fatal("chain link beyond the depth bound installed")
	}
}

// TestDelegationResidualFastPath: once warm, delegation-backed requests
// are decided on the precompiled residual path and counted there.
func TestDelegationResidualFastPath(t *testing.T) {
	f := newFixture(t)
	srv := f.newServer(audit.NewLog())
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ctx := context.Background()
	root := f.issueDelegation(t, "", "User_D1", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.clk.Tick()
		if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D1", root)); err != nil {
			t.Fatalf("delegated read %d: %v", i, err)
		}
	}
	if hits := reg.Snapshot().CounterValue(MetricResidualHits); hits == 0 {
		t.Fatal("no delegated request hit the residual fast path")
	}
}

// TestDelegationResidualMatchesReplay: the residual-vs-replay differential
// for delegation-backed requests, including the Step-4 leaves the object
// decides — an unknown object and a delegation into a group that is not
// on the ACL.
func TestDelegationResidualMatchesReplay(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(audit.NewLog())
	ctx := context.Background()
	onACL := f.issueDelegation(t, "", "User_D1", "G_read", 0, "read")
	offACL := f.issueDelegation(t, "", "User_D2", "G_elsewhere", 0, "read")
	for _, cert := range []pki.Signed[pki.Delegation]{onACL, offACL} {
		if err := srv.Apply(ctx, Delegation{Cert: cert}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both leaf certificates (the outcomes do not matter).
	srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D1", onACL))  //nolint:errcheck // warming only
	srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", offACL)) //nolint:errcheck // warming only
	for _, tc := range []struct {
		name string
		req  AccessRequest
		want string // DeniedStep; "" = allowed
	}{
		{"known object", f.delegatedReadRequest(t, "User_D1", onACL), ""},
		{"unknown object", f.delegatedReadOf(t, "Nope", "User_D1", onACL), StepACL},
		{"group not on the ACL", f.delegatedReadRequest(t, "User_D2", offACL), StepACL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := requireResidualAgreesWithReplay(t, srv, reg, tc.req)
			if dec.DeniedStep != tc.want || dec.Allowed != (tc.want == "") {
				t.Fatalf("decision = %+v, want denied step %q", dec, tc.want)
			}
		})
	}
}

// TestDelegationRevocationAcrossWALReplay: the WAL interplay — a chain is
// journaled, a mid-chain revocation is journaled after it, and a server
// replayed from the log must deny the downstream grant; a second restart
// ordering (revocation arriving only after recovery) must deny too.
func TestDelegationRevocationAcrossWALReplay(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	dir := t.TempDir()
	srv1 := f.newServer(audit.NewLog())
	l1 := openWAL(t, dir)
	if err := srv1.SetJournal(l1); err != nil {
		t.Fatal(err)
	}
	root := f.issueDelegation(t, "", "User_D1", "G_read", 1, "read")
	link := f.issueDelegation(t, "User_D1", "User_D2", "G_read", 0, "read")
	if err := srv1.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(ctx, Delegation{Cert: link}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err != nil {
		t.Fatalf("pre-crash delegated read: %v", err)
	}
	// Mid-chain revocation: the RA withdraws the delegator.
	rev, err := f.ra.RevokeSubject("G_read", pki.BoundSubject{Name: "User_D1", KeyID: f.users["User_D1"].KeyID()}, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(ctx, Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err == nil {
		t.Fatal("pre-crash delegated read approved after mid-chain revocation")
	}
	if err := l1.Close(); err != nil { // crash
		t.Fatal(err)
	}

	// Recovery: the replayed server must hold the chain AND its severing.
	srv2 := f.newServer(audit.NewLog())
	l2, recs := reopenWAL(t, dir)
	rep, err := srv2.Replay(recs, ReplayExact)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Delegations != 2 {
		t.Fatalf("replay report counts %d delegations, want 2: %+v", rep.Delegations, rep)
	}
	if err := srv2.SetJournal(l2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err == nil {
		t.Fatal("replayed server approved a chain severed before the crash")
	} else if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("post-replay denial for the wrong reason: %v", err)
	}

	// Opposite ordering: a fresh log journals only the chain; the
	// revocation reaches the server after recovery.
	dir2 := t.TempDir()
	srv3 := f.newServer(audit.NewLog())
	l3 := openWAL(t, dir2)
	if err := srv3.SetJournal(l3); err != nil {
		t.Fatal(err)
	}
	root2 := f.issueDelegation(t, "", "User_D3", "G_read", 0, "read")
	if err := srv3.Apply(ctx, Delegation{Cert: root2}); err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	srv4 := f.newServer(audit.NewLog())
	l4, recs2 := reopenWAL(t, dir2)
	if _, err := srv4.Replay(recs2, ReplayExact); err != nil {
		t.Fatal(err)
	}
	if err := srv4.SetJournal(l4); err != nil {
		t.Fatal(err)
	}
	if _, err := srv4.Authorize(ctx, f.delegatedReadRequest(t, "User_D3", root2)); err != nil {
		t.Fatalf("replayed chain refused before revocation: %v", err)
	}
	rev2, err := f.ra.RevokeSubject("G_read", pki.BoundSubject{Name: "User_D3", KeyID: f.users["User_D3"].KeyID()}, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv4.Apply(ctx, Revocation{Cert: rev2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv4.Authorize(ctx, f.delegatedReadRequest(t, "User_D3", root2)); err == nil {
		t.Fatal("recovered server approved a chain revoked after replay")
	}
}

// TestDelegationRevocationOnReplica: follower interplay — a replica built
// from the writer's journal holds the delegation chains, and a shipped
// revocation severs them on the follower exactly as on the writer.
func TestDelegationRevocationOnReplica(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	dir := t.TempDir()
	writer := f.newServer(audit.NewLog())
	l := openWAL(t, dir)
	if err := writer.SetJournal(l); err != nil {
		t.Fatal(err)
	}
	root := f.issueDelegation(t, "", "User_D1", "G_read", 1, "read")
	link := f.issueDelegation(t, "User_D1", "User_D2", "G_read", 0, "read")
	if err := writer.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Apply(ctx, Delegation{Cert: link}); err != nil {
		t.Fatal(err)
	}
	_, recs := reopenWAL(t, dir)
	store := acl.NewStore(f.clk)
	objACL, err := acl.NewACL(acl.Entry{Group: "G_read", Perms: []acl.Permission{acl.Read}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("O", objACL, []byte("replicated"), "G_policy"); err != nil {
		t.Fatal(err)
	}
	replica, rep, err := NewReplica("follower", f.clk, store, audit.NewLog(), recs)
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	if rep.Delegations != 2 {
		t.Fatalf("replica replay counts %d delegations, want 2", rep.Delegations)
	}
	if _, err := replica.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err != nil {
		t.Fatalf("delegated read on replica: %v", err)
	}
	// The writer journals the mid-chain revocation; shipping the new
	// records severs the chain on the follower.
	rev, err := f.ra.RevokeSubject("G_read", pki.BoundSubject{Name: "User_D1", KeyID: f.users["User_D1"].KeyID()}, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Apply(ctx, Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	_, all := reopenWAL(t, dir)
	if _, err := replica.ApplyReplicated(all[len(recs):]); err != nil {
		t.Fatalf("apply replicated records: %v", err)
	}
	if _, err := replica.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err == nil {
		t.Fatal("follower approved a chain the writer severed")
	}
}

// TestDelegationMetricsCount: the subsystem's counters reconcile with a
// driven workload — chains, depth exhaustions and link-revocation
// denials.
func TestDelegationMetricsCount(t *testing.T) {
	f := newFixture(t)
	srv := f.newServer(audit.NewLog())
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ctx := context.Background()
	root := f.issueDelegation(t, "", "User_D1", "G_read", 1, "read")
	link := f.issueDelegation(t, "User_D1", "User_D2", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Apply(ctx, Delegation{Cert: link}); err != nil {
		t.Fatal(err)
	}
	beyond := f.issueDelegation(t, "User_D2", "User_D3", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: beyond}); err == nil {
		t.Fatal("chain link beyond the depth bound installed")
	}
	rev, err := f.ra.RevokeSubject("G_read", pki.BoundSubject{Name: "User_D1", KeyID: f.users["User_D1"].KeyID()}, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Apply(ctx, Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", link)); err == nil {
		t.Fatal("severed chain approved")
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(delegation.MetricChains); got != 2 {
		t.Errorf("%s = %d, want 2", delegation.MetricChains, got)
	}
	if got := snap.CounterValue(delegation.MetricDepthExhausted); got != 1 {
		t.Errorf("%s = %d, want 1", delegation.MetricDepthExhausted, got)
	}
	if got := snap.CounterValue(delegation.MetricLinkRevocationDenials); got < 1 {
		t.Errorf("%s = %d, want >= 1", delegation.MetricLinkRevocationDenials, got)
	}
}

// TestWarmDelegatedHitsCountedAsDelegation: a warm delegated request's
// leaf-certificate hit is counted under the delegation kind, as the cold
// arm counts its miss — never as an attribute certificate. A leaf whose
// subject holds no chain is cached too: its repeats are denied as hits.
func TestWarmDelegatedHitsCountedAsDelegation(t *testing.T) {
	f := newFixture(t)
	srv := f.newServer(audit.NewLog())
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	ctx := context.Background()
	root := f.issueDelegation(t, "", "User_D2", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	unapplied := f.issueDelegation(t, "", "User_D3", "G_read", 0, "read")
	for i := 0; i < 5; i++ {
		f.clk.Tick()
		if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D2", root)); err != nil {
			t.Fatalf("delegated read %d: %v", i, err)
		}
		if _, err := srv.Authorize(ctx, f.delegatedReadRequest(t, "User_D3", unapplied)); err == nil {
			t.Fatalf("delegated read %d approved without a chain", i)
		}
	}
	for _, c := range []struct {
		metric, kind string
		want         int64
	}{
		{MetricCacheHits, "delegation", 8},
		{MetricCacheMisses, "delegation", 2},
		{MetricCacheHits, "attribute", 0},
		{MetricCacheMisses, "attribute", 0},
	} {
		if got := reg.Counter(c.metric, "kind", c.kind).Value(); got != c.want {
			t.Errorf("%s{kind=%q} = %d, want %d", c.metric, c.kind, got, c.want)
		}
	}
}
