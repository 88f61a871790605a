package daemon

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
	"jointadmin/internal/wal"
)

// TestRepeatedReadsReuseIdentityCertificate: a signer's domain holds the
// identity certificate it issued, so 1 000 reads by one signer carry the
// same certificate bytes — the server verifies it at most once and finds
// it in its verified-certificate cache every other time, evicting
// nothing.
func TestRepeatedReadsReuseIdentityCertificate(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{Domains: []string{"D1", "D2", "D3"}, Users: []string{"alice", "bob", "carol"}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const (
		misses = authz.MetricCacheMisses + `{kind="identity"}`
		hits   = authz.MetricCacheHits + `{kind="identity"}`
		reads  = 1000
	)
	before := reg.Snapshot()
	ctx := context.Background()
	for i := 0; i < reads; i++ {
		if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !rep.OK {
			t.Fatalf("read %d: %+v", i, rep)
		}
	}
	after := reg.Snapshot()
	if n := after.CounterValue(misses) - before.CounterValue(misses); n > 1 {
		t.Errorf("%d reads by one signer: %s rose by %d, want at most 1", reads, misses, n)
	}
	if n := after.CounterValue(hits) - before.CounterValue(hits); n < reads-1 {
		t.Errorf("%d reads by one signer: %s rose by %d, want at least %d", reads, hits, n, reads-1)
	}
	if n := after.CounterValue(authz.MetricCacheInvalidated); n != 0 {
		t.Errorf("%s = %d, want 0", authz.MetricCacheInvalidated, n)
	}
}

// signedBy has the writer sign a read request for signer, as the sign
// command ships it to followers.
func signedBy(ctx context.Context, t *testing.T, d *Daemon, signer string) string {
	t.Helper()
	rep := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{signer}})
	if !rep.OK {
		t.Fatalf("sign for %s: %+v", signer, rep)
	}
	return rep.Data
}

// decide decides a signed request on the writer's server and on the
// follower's replica, returning both decisions.
func decide(ctx context.Context, t *testing.T, d *Daemon, f *Follower, body string) (writer, follower authz.Decision) {
	t.Helper()
	req, err := authz.DecodeAccessRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	writer, _ = d.server.Request(ctx, req)
	follower, _ = f.Applier().Replica().Srv.Authorize(ctx, req)
	return writer, follower
}

// checkDenied fails the test unless dec is a denial at step for reason.
func checkDenied(t *testing.T, what string, dec authz.Decision, step, reason string) {
	t.Helper()
	if dec.Allowed || dec.DeniedStep != step || dec.Reason != reason {
		t.Errorf("%s: allowed=%v step=%q reason=%q, want denied at %q with %q",
			what, dec.Allowed, dec.DeniedStep, dec.Reason, step, reason)
	}
}

// TestRevokedIdentityDeniedOnWriterAndFollower: after mutate
// revoke-identity bob, bob's reads are denied at step 1 on the writer and
// on a follower — whether the request was signed before the revocation
// or after it, and however often bob had read before it.
func TestRevokedIdentityDeniedOnWriterAndFollower(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	for i := 0; i < 3; i++ {
		if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"bob"}}); !rep.OK {
			t.Fatalf("bob's read %d before the revocation: %+v", i, rep)
		}
	}
	early := signedBy(ctx, t, d, "bob")
	waitCaughtUp(ctx, t, d, f)
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: early}); !rep.OK {
		t.Fatalf("bob's signed read before the revocation: %+v", rep)
	}

	if rep := d.Handle(ctx, Command{Cmd: "mutate", Op: "revoke-identity", Data: "bob"}); !rep.OK {
		t.Fatalf("revoke-identity bob: %+v", rep)
	}
	kp, err := d.alliance.Coalition().UserKey("bob")
	if err != nil {
		t.Fatal(err)
	}
	// The reason the cold derivation gives, and the cached path repeats.
	reason := func() string {
		return fmt.Sprintf("identity derivation failed: verify certificate: key certificate: key %s revoked as of %s",
			kp.KeyID(), d.alliance.Clock().Now())
	}
	rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"bob"}})
	if want := authz.ErrDenied.Error() + ": " + reason(); rep.OK || rep.Detail != want {
		t.Errorf("writer read by bob: %+v, want denied with %q", rep, want)
	}
	late := signedBy(ctx, t, d, "bob")
	waitCaughtUp(ctx, t, d, f)
	for _, tc := range []struct{ name, body string }{{"signed before", early}, {"signed after", late}} {
		rep := f.Handle(ctx, Command{Cmd: "authorize", Data: tc.body})
		if want := authz.ErrDenied.Error() + ": " + reason(); rep.OK || rep.Detail != want {
			t.Errorf("%s the revocation, follower: %+v, want denied with %q", tc.name, rep, want)
		}
		w, fl := decide(ctx, t, d, f, tc.body)
		checkDenied(t, tc.name+" the revocation, writer", w, authz.StepCerts, reason())
		checkDenied(t, tc.name+" the revocation, follower", fl, authz.StepCerts, reason())
	}
	if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !rep.OK {
		t.Errorf("carol's read after bob's revocation: %+v", rep)
	}
}

// setDown marks domain's share holder in the writer's AA down: a join
// or leave it must deal in cannot redistribute the shares, and re-keys.
func setDown(t *testing.T, d *Daemon, domain string) {
	t.Helper()
	for _, da := range d.alliance.Coalition().AA().Domains() {
		if da.Name == domain {
			da.SetDown(true)
			return
		}
	}
	t.Fatalf("no share holder %s", domain)
}

// TestPresignedRequestAcrossDynamics: a request signed before a
// re-keying join or leave (a member, or the departing domain, is down)
// carries the outgoing key epoch's group certificate, so after the
// re-key it is denied at step 2 on the writer and on a follower, while a
// request signed after it is approved.
func TestPresignedRequestAcrossDynamics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	for _, ev := range []Command{{Cmd: "join", Domain: "D4"}, {Cmd: "leave", Domain: "D4"}} {
		oldAA := d.alliance.Coalition().AA().Public().KeyID()
		setDown(t, d, map[string]string{"join": "D1", "leave": "D4"}[ev.Cmd])
		pre := signedBy(ctx, t, d, "carol")
		waitCaughtUp(ctx, t, d, f)
		if w, fl := decide(ctx, t, d, f, pre); !w.Allowed || !fl.Allowed {
			t.Fatalf("before %s: writer %+v, follower %+v", ev.Cmd, w, fl)
		}
		if rep := d.Handle(ctx, ev); !rep.OK {
			t.Fatalf("%s: %+v", ev.Cmd, rep)
		}
		newAA := d.alliance.Coalition().AA().Public().KeyID()
		d.Handle(ctx, Command{Cmd: "stats"}) // a tick past the re-issued certificates' notBefore
		post := signedBy(ctx, t, d, "carol")
		waitCaughtUp(ctx, t, d, f)
		reason := fmt.Sprintf("threshold attribute certificate invalid: pki: certificate signature invalid: signed by key %s, verifying with %s",
			oldAA, newAA)
		w, fl := decide(ctx, t, d, f, pre)
		checkDenied(t, "signed before "+ev.Cmd+", writer", w, authz.StepThreshold, reason)
		checkDenied(t, "signed before "+ev.Cmd+", follower", fl, authz.StepThreshold, reason)
		if w, fl := decide(ctx, t, d, f, post); !w.Allowed || !fl.Allowed || w.Group != "G_read" || fl.Group != "G_read" {
			t.Errorf("signed after %s: writer %+v, follower %+v, want both approved via G_read", ev.Cmd, w, fl)
		}
	}
}

// TestPresignedRequestAcrossCooperativeDynamics is the redistribution
// counterpart: a cooperative join or leave of a domain without users
// keeps the AA key and the group certificates, so a request signed
// before it is still approved after it, on the writer and on a follower.
func TestPresignedRequestAcrossCooperativeDynamics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	key := d.alliance.Coalition().AA().Public().KeyID()
	for _, ev := range []Command{{Cmd: "join", Domain: "D4"}, {Cmd: "leave", Domain: "D4"}} {
		pre := signedBy(ctx, t, d, "carol")
		rep := d.Handle(ctx, ev)
		if !rep.OK || !strings.Contains(rep.Detail, "redistributed") {
			t.Fatalf("%s: %+v, want a redistribution", ev.Cmd, rep)
		}
		waitCaughtUp(ctx, t, d, f)
		if w, fl := decide(ctx, t, d, f, pre); !w.Allowed || !fl.Allowed {
			t.Errorf("signed before %s: writer %+v, follower %+v, want both approved", ev.Cmd, w, fl)
		}
	}
	if got := d.alliance.Coalition().AA().Public().KeyID(); got != key {
		t.Errorf("AA key %s after a cooperative join and leave, want %s", got, key)
	}
}

// TestRevokedIdentitySurvivesJoinAndLeave: a join or leave re-keys the AA
// and re-anchors the server but keeps the domain CAs' keys, so bob's
// identity certificate still verifies after it; mutate revoke-identity
// bob must hold across both, on the writer (Handle) and on a follower,
// while carol's reads pass.
func TestRevokedIdentitySurvivesJoinAndLeave(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	if rep := d.Handle(ctx, Command{Cmd: "mutate", Op: "revoke-identity", Data: "bob"}); !rep.OK {
		t.Fatalf("revoke-identity bob: %+v", rep)
	}
	kp, err := d.alliance.Coalition().UserKey("bob")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Command{{Cmd: "audit"}, {Cmd: "join", Domain: "D4"}, {Cmd: "leave", Domain: "D4"}} {
		if rep := d.Handle(ctx, ev); !rep.OK {
			t.Fatalf("%s: %+v", ev.Cmd, rep)
		}
		d.Handle(ctx, Command{Cmd: "stats"}) // a tick past the re-issued certificates' notBefore
		rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"bob"}})
		if rep.OK || !strings.Contains(rep.Detail, fmt.Sprintf("key %s revoked as of", kp.KeyID())) {
			t.Errorf("after %s: bob's read on the writer: %+v, want denied for his revoked key", ev.Cmd, rep)
		}
		if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !rep.OK {
			t.Errorf("after %s: carol's read on the writer: %+v", ev.Cmd, rep)
		}
		body := signedBy(ctx, t, d, "bob")
		waitCaughtUp(ctx, t, d, f)
		if _, fl := decide(ctx, t, d, f, body); fl.Allowed || fl.DeniedStep != authz.StepCerts {
			t.Errorf("after %s: bob's read on the follower: allowed=%v step=%q, want denied at %s", ev.Cmd, fl.Allowed, fl.DeniedStep, authz.StepCerts)
		}
	}
}

// TestRevokedIdentitySurvivesCompaction: a join re-anchors the server and
// the log is compacted at its anchors record; the identity revocation
// made before it must be in what is left, so a replica of the compacted
// log denies bob's request, and the daemon reopened on it (fresh keys,
// ReplayBeliefs) still believes his old key revoked.
func TestRevokedIdentitySurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CompactBytes = 1 // compact after every mutation and dynamics command
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []Command{{Cmd: "mutate", Op: "revoke-identity", Data: "bob"}, {Cmd: "join", Domain: "D4"}} {
		if rep := d1.Handle(ctx, c); !rep.OK {
			t.Fatalf("%s: %+v", c.Cmd, rep)
		}
	}
	d1.Handle(ctx, Command{Cmd: "stats"}) // a tick past the re-issued certificates' notBefore
	body := signedBy(ctx, t, d1, "bob")
	req, err := authz.DecodeAccessRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	bobKey := req.Identities[0].Cert.KeyID
	objs, err := d1.server.Authz().Objects().Export()
	if err != nil {
		t.Fatal(err)
	}
	now := d1.alliance.Clock().Now()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	l, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The compaction kept the audit records before the join's anchors,
	// which hold no belief; the compacted log is a state prefix, which a
	// replica installs whole.
	anchors := 0
	for _, r := range recs {
		if r.Type == wal.TypeAnchors {
			anchors++
		}
	}
	if anchors != 1 {
		t.Fatalf("the log holds %d anchors records: it was not compacted at the join", anchors)
	}
	clk := clock.New(0)
	objects := acl.NewStore(clk)
	if err := objects.Import(objs, "writer"); err != nil {
		t.Fatal(err)
	}
	replica, _, err := authz.NewReplica("f1", clk, objects, nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(now)
	if dec, _ := replica.Authorize(ctx, req); dec.Allowed || dec.DeniedStep != authz.StepCerts {
		t.Errorf("replica of the compacted log: bob's read allowed=%v step=%q, want denied at %s", dec.Allowed, dec.DeniedStep, authz.StepCerts)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if !d2.server.Authz().Snapshot().Engine().Store().KeyRevoked(logic.KeyID(bobKey), d2.alliance.Clock().Now()) {
		t.Errorf("the reopened daemon does not believe bob's key %s revoked", bobKey)
	}
	if rep := d2.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !rep.OK {
		t.Errorf("carol's read after the reopen: %+v", rep)
	}
}
