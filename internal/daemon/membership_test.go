package daemon

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/wal"
)

// serveWriter starts a replicating writer daemon over the demo coalition
// (D1–D3; alice, bob and carol, one per domain) on a localhost node, with
// cfg's compaction bound, and stops it when the test ends. It returns the
// daemon and the node's address.
func serveWriter(ctx context.Context, t *testing.T, compactBytes int64) (*Daemon, string) {
	t.Helper()
	d, err := New(Config{
		Domains:       []string{"D1", "D2", "D3"},
		Users:         []string{"alice", "bob", "carol"},
		DataDir:       t.TempDir(),
		Replicate:     true,
		ReplHeartbeat: 20 * time.Millisecond,
		CompactBytes:  compactBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(ctx, t, func(ctx context.Context) error { return d.Serve(ctx, node) }, func() {
		node.Close()
		d.Close()
	})
	return d, node.Addr()
}

// serveFollower starts a follower of the writer at addr and stops it
// when the test ends.
func serveFollower(ctx context.Context, t *testing.T, name, addr string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{Name: name, WriterAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	node, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(ctx, t, func(ctx context.Context) error { return f.Serve(ctx, node) }, func() { node.Close() })
	return f
}

// serve runs loop until the test ends, then cancels it, runs closeAll and
// waits for it.
func serve(ctx context.Context, t *testing.T, loop func(context.Context) error, closeAll func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		closeAll()
		wg.Wait()
	})
}

// must handles cmd on the writer and fails the test unless it succeeds.
func must(ctx context.Context, t *testing.T, d *Daemon, cmd Command) Reply {
	t.Helper()
	rep := d.Handle(ctx, cmd)
	if !rep.OK {
		t.Fatalf("%s %s: %+v", cmd.Cmd, cmd.Op, rep)
	}
	return rep
}

// sign has the writer sign cmd's request (a sign command) for followers.
func sign(ctx context.Context, t *testing.T, d *Daemon, cmd Command) string {
	t.Helper()
	cmd.Cmd = "sign"
	return must(ctx, t, d, cmd).Data
}

// TestFollowerInstallsCompactedLog: after a compaction at a join's
// re-anchoring, which keeps the older audit records ahead of the anchors
// record, a new follower installs the compacted log as its snapshot and
// becomes ready within a few resyncs.
func TestFollowerInstallsCompactedLog(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, addr := serveWriter(ctx, t, 1)
	must(ctx, t, d, Command{Cmd: "read", Signers: []string{"alice"}})
	must(ctx, t, d, Command{Cmd: "join", Domain: "D4"})
	hist, _, err := d.wal.History()
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Type != wal.TypeAudit {
		t.Fatalf("the compacted log starts with %s; the test needs audit records ahead of the anchors", hist[0].Type)
	}
	f := serveFollower(ctx, t, "late", addr)
	deadline := time.After(5 * time.Second)
	for st := f.Applier().Status(); !st.Ready; st = f.Applier().Status() {
		if st.Resyncs > 3 {
			t.Fatalf("follower resynced %d times without installing the compacted log: %+v", st.Resyncs, st)
		}
		select {
		case <-deadline:
			t.Fatalf("follower not ready after 5s: %+v", f.Applier().Status())
		case <-time.After(5 * time.Millisecond):
		}
	}
	waitCaughtUp(ctx, t, d, f)
	body := sign(ctx, t, d, Command{Signers: []string{"alice"}})
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: body}); !rep.OK {
		t.Errorf("alice's read on the follower of the compacted log: %+v", rep)
	}
}

// cooperativeChanges are a join and a leave of D4, a domain no user,
// grant or revocation names.
var cooperativeChanges = []Command{{Cmd: "join", Domain: "D4"}, {Cmd: "leave", Domain: "D4"}}

// TestPolicySurvivesCooperativeChange: a group link, a delegation chain
// and a graph link each survive a cooperative join and a cooperative
// leave of an uninvolved domain, on the writer and on a follower.
func TestPolicySurvivesCooperativeChange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grant   []Command
		request Command
	}{
		{"group link", []Command{{Cmd: "mutate", Op: "link", Group: "G_read", Data: "G_write"}},
			Command{Op: "write", Group: "G_read", Signers: []string{"alice"}, Data: "via link"}},
		{"delegation chain", []Command{
			{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"},
			{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"}},
			Command{Signers: []string{"bob"}, Delegated: true}},
		{"graph link", []Command{{Cmd: "mutate", Op: "graph-link", Group: "G_read", Data: "G_write:1"}},
			Command{Op: "write", Group: "G_read", Signers: []string{"alice"}, Data: "via graph"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			d, f, _ := startWriterAndFollower(ctx, t)
			for _, g := range tc.grant {
				must(ctx, t, d, g)
			}
			for _, ev := range append([]Command{{Cmd: "audit"}}, cooperativeChanges...) {
				rep := must(ctx, t, d, ev)
				if ev.Cmd != "audit" && !strings.Contains(rep.Detail, "shares redistributed") {
					t.Fatalf("%s: %q, want a redistribution", ev.Cmd, rep.Detail)
				}
				body := sign(ctx, t, d, tc.request)
				waitCaughtUp(ctx, t, d, f)
				if w, fl := decide(ctx, t, d, f, body); !w.Allowed || !fl.Allowed {
					t.Errorf("after %s: writer %+v, follower %+v, want both approved", ev.Cmd, w, fl)
				}
			}
		})
	}
}

// TestRevocationsSurviveCooperativeChange: the unchanged AA key keeps
// every certificate valid, so a revoked threshold certificate, a revoked
// delegation and a revoked identity must stay denied across a
// cooperative join and leave, on the writer and on a follower.
func TestRevocationsSurviveCooperativeChange(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	requests := map[string]Command{
		"revoked threshold":  {Op: "write", Signers: []string{"alice", "bob"}, Data: "v"},
		"revoked delegation": {Group: "G_read", Signers: []string{"bob"}, Delegated: true},
		"revoked identity":   {Signers: []string{"carol"}},
	}
	must(ctx, t, d, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "bob:0:read"})
	presigned := make(map[string]string)
	for name, cmd := range requests {
		presigned[name] = sign(ctx, t, d, cmd)
	}
	must(ctx, t, d, Command{Cmd: "revoke"})
	must(ctx, t, d, Command{Cmd: "mutate", Op: "revoke", Group: "G_read", Data: "bob"})
	must(ctx, t, d, Command{Cmd: "mutate", Op: "revoke-identity", Data: "carol"})
	for _, ev := range cooperativeChanges {
		must(ctx, t, d, ev)
		waitCaughtUp(ctx, t, d, f)
		for name, body := range presigned {
			if w, fl := decide(ctx, t, d, f, body); w.Allowed || fl.Allowed {
				t.Errorf("%s, signed before the revocation, after %s: writer %+v, follower %+v, want both denied", name, ev.Cmd, w, fl)
			}
		}
		for name, cmd := range requests {
			cmd.Cmd = "read"
			if cmd.Op == "write" {
				cmd.Cmd = "write"
			}
			if rep := d.Handle(ctx, cmd); rep.OK {
				t.Errorf("%s after %s: writer approved %+v", name, ev.Cmd, rep)
			}
		}
	}
}

// TestCooperativeLeaveCutsOffDepartedUser: after a cooperative leave of
// D3, carol's domain, carol is denied from the leave's watermark on —
// her domain's CA is no longer anchored — on the writer and on a
// follower, and the certificates that named her are re-issued without
// her.
func TestCooperativeLeaveCutsOffDepartedUser(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	carol := sign(ctx, t, d, Command{Signers: []string{"carol"}})
	rep := must(ctx, t, d, Command{Cmd: "leave", Domain: "D3"})
	if !strings.Contains(rep.Detail, "re-issued 2, shares redistributed") {
		t.Errorf("leave of D3: %q, want G_write and G_read re-issued by a redistribution", rep.Detail)
	}
	waitCaughtUp(ctx, t, d, f)
	w, fl := decide(ctx, t, d, f, carol)
	checkDenied(t, "carol after D3 left, writer", w, authz.StepCerts, "identity certificate from untrusted CA CA_D3")
	checkDenied(t, "carol after D3 left, follower", fl, authz.StepCerts, "identity certificate from untrusted CA CA_D3")
	for _, g := range []string{"G_write", "G_read"} {
		subs, err := d.alliance.BoundSubjectsOf(g)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range subs {
			names = append(names, s.Name)
		}
		if !slices.Equal(names, []string{"alice", "bob"}) {
			t.Errorf("%s re-issued over %v, want alice and bob", g, names)
		}
	}
	body := sign(ctx, t, d, Command{Op: "write", Signers: []string{"alice", "bob"}, Data: "v"})
	waitCaughtUp(ctx, t, d, f)
	if w, fl := decide(ctx, t, d, f, body); !w.Allowed || !fl.Allowed {
		t.Errorf("alice and bob under the re-issued G_write: writer %+v, follower %+v", w, fl)
	}
}

// TestCooperativeLeaveDropsChainsThroughDepartedUser: a delegation chain
// that runs through carol does not outlive her domain's cooperative
// leave. The AA key stays, so every link still verifies; the leave
// withdraws the delegation to carol, and alice's write through it is
// denied from the leave's watermark on, on the writer, on a follower and
// on a server that replays the writer's log. A chain that names no
// departed user carries.
func TestCooperativeLeaveDropsChainsThroughDepartedUser(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	for _, c := range []Command{
		{Cmd: "mutate", Op: "delegate", Group: "G_write", Data: "carol:1:write"},
		{Cmd: "mutate", Op: "delegate", Group: "G_write", Data: "carol>alice:0:write"},
		{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "bob:1:read"},
		{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "bob>alice:0:read"},
	} {
		must(ctx, t, d, c)
	}
	viaCarol := Command{Op: "write", Group: "G_write", Signers: []string{"alice"}, Delegated: true, Data: "via carol"}
	viaBob := Command{Group: "G_read", Signers: []string{"alice"}, Delegated: true}
	presigned := sign(ctx, t, d, viaCarol)
	waitCaughtUp(ctx, t, d, f)
	if w, fl := decide(ctx, t, d, f, presigned); !w.Allowed || !fl.Allowed {
		t.Fatalf("alice's write through carol before the leave: writer %+v, follower %+v", w, fl)
	}
	if rep := must(ctx, t, d, Command{Cmd: "leave", Domain: "D3"}); !strings.Contains(rep.Detail, "shares redistributed") {
		t.Fatalf("leave of D3: %q, want a redistribution", rep.Detail)
	}
	waitCaughtUp(ctx, t, d, f)
	hist, _, err := d.wal.History()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := d.alliance.NewServer("replayed")
	if err != nil {
		t.Fatal(err)
	}
	objs, err := d.server.Authz().Objects().Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Authz().Objects().Import(objs, "writer"); err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Authz().Replay(hist, authz.ReplayExact); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{presigned, sign(ctx, t, d, viaCarol)} {
		req, err := authz.DecodeAccessRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		w, fl := decide(ctx, t, d, f, body)
		r, _ := rebuilt.Authz().Authorize(ctx, req)
		for name, dec := range map[string]authz.Decision{"writer": w, "follower": fl, "replayed log": r} {
			if dec.Allowed || dec.DeniedStep != authz.StepThreshold {
				t.Errorf("alice's write through carol after D3 left, %s: allowed=%v step=%q reason=%q, want denied at %q",
					name, dec.Allowed, dec.DeniedStep, dec.Reason, authz.StepThreshold)
			}
		}
	}
	body := sign(ctx, t, d, viaBob)
	waitCaughtUp(ctx, t, d, f)
	if w, fl := decide(ctx, t, d, f, body); !w.Allowed || !fl.Allowed {
		t.Errorf("alice's read through bob after D3 left: writer %+v, follower %+v, want both approved", w, fl)
	}
}

// outcome is what event invariance compares of a decision.
type outcome struct {
	allowed      bool
	step, reason string
}

func outcomeOf(dec authz.Decision) outcome { return outcome{dec.Allowed, dec.DeniedStep, dec.Reason} }

// TestCooperativeChangeEventInvariance: a cooperative join and leave of
// an uninvolved domain, and its rejoin, change no decision. Every
// request, presigned before the changes, is decided after the leave and
// again after the rejoin by four deciders — the writer, a follower, a
// server rebuilt by replaying the writer's whole log, and a replica of
// the log compacted at that point — and each decision's outcome, denied
// step and reason equal those of a replica of the log up to the changes
// (the no-change run), at the same time.
func TestCooperativeChangeEventInvariance(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	for _, c := range []Command{
		{Cmd: "mutate", Op: "link", Group: "G_read", Data: "G_write"},
		{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"},
		{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"},
		{Cmd: "mutate", Op: "delegate", Group: "G_write", Data: "carol:0:write"},
		{Cmd: "mutate", Op: "revoke", Group: "G_write", Data: "carol"},
		{Cmd: "revoke"},
		{Cmd: "mutate", Op: "revoke-identity", Data: "bob"},
	} {
		must(ctx, t, d, c)
	}
	var bodies []string
	for _, c := range []Command{
		{Signers: []string{"alice"}},
		{Signers: []string{"bob"}},
		{Signers: []string{"carol"}},
		{Op: "write", Group: "G_read", Signers: []string{"alice"}, Data: "via link"},
		{Op: "write", Signers: []string{"alice", "carol"}, Data: "revoked group"},
		{Signers: []string{"alice"}, Delegated: true},
		{Signers: []string{"bob"}, Delegated: true},
		{Op: "write", Group: "G_write", Signers: []string{"carol"}, Delegated: true, Data: "revoked delegation"},
	} {
		bodies = append(bodies, sign(ctx, t, d, c))
	}
	before, _, err := d.wal.History()
	if err != nil {
		t.Fatal(err)
	}
	// full is the writer's whole log: the first phase's compaction drops
	// records the second phase's replay still reads.
	var full []wal.Record
	for _, phase := range []struct {
		name   string
		events []Command
	}{
		{"leave", cooperativeChanges},
		// D4 joins again: the rejoin re-admits its CA.
		{"rejoin", cooperativeChanges[:1]},
	} {
		for _, ev := range phase.events {
			if rep := must(ctx, t, d, ev); !strings.Contains(rep.Detail, "shares redistributed") {
				t.Fatalf("%s: %q, want a redistribution", ev.Cmd, rep.Detail)
			}
		}
		waitCaughtUp(ctx, t, d, f)
		now := d.alliance.Clock().Now()
		hist, _, err := d.wal.History()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range hist {
			if len(full) == 0 || r.Seq > full[len(full)-1].Seq {
				full = append(full, r)
			}
		}
		objs, err := d.server.Authz().Objects().Export()
		if err != nil {
			t.Fatal(err)
		}
		server := func(build func(clk *clock.Clock, objects *acl.Store) (*authz.Server, error)) *authz.Server {
			t.Helper()
			clk := clock.New(0)
			objects := acl.NewStore(clk)
			if err := objects.Import(objs, "writer"); err != nil {
				t.Fatal(err)
			}
			s, err := build(clk, objects)
			if err != nil {
				t.Fatal(err)
			}
			clk.AdvanceTo(now)
			return s
		}
		replicaOf := func(recs []wal.Record) *authz.Server {
			return server(func(clk *clock.Clock, objects *acl.Store) (*authz.Server, error) {
				s, _, err := authz.NewReplica("r", clk, objects, nil, recs)
				return s, err
			})
		}
		noChange := replicaOf(before)
		// A daemon's boot draws new keys (ReplayBeliefs), under which no
		// presigned request verifies; this server keeps the writer's
		// authorities and replays the whole log verbatim, as crash
		// recovery of a server whose authorities outlive it does.
		rebuilt, err := d.alliance.NewServer("replayed")
		if err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Authz().Objects().Import(objs, "writer"); err != nil {
			t.Fatal(err)
		}
		if _, err := rebuilt.Authz().Replay(full, authz.ReplayExact); err != nil {
			t.Fatal(err)
		}
		replayed := rebuilt.Authz()
		if err := d.wal.Compact(wal.CompactPolicy(-1)); err != nil {
			t.Fatal(err)
		}
		compacted, _, err := d.wal.History()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(compacted); n >= len(hist) {
			t.Fatalf("after the %s, the compaction kept %d of %d records", phase.name, n, len(hist))
		}
		fromCompacted := replicaOf(compacted)

		approvals := 0
		for i, body := range bodies {
			req, err := authz.DecodeAccessRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := noChange.Authorize(ctx, req)
			if want.Allowed {
				approvals++
			}
			w, fl := decide(ctx, t, d, f, body)
			r, _ := replayed.Authorize(ctx, req)
			c, _ := fromCompacted.Authorize(ctx, req)
			for _, got := range []struct {
				decider string
				dec     authz.Decision
			}{{"writer", w}, {"follower", fl}, {"replayed log", r}, {"compacted log's replica", c}} {
				if outcomeOf(got.dec) != outcomeOf(want) {
					t.Errorf("after the %s, request %d on the %s: %+v, want the no-change run's %+v",
						phase.name, i, got.decider, outcomeOf(got.dec), outcomeOf(want))
				}
			}
		}
		if approvals == 0 || approvals == len(bodies) {
			t.Errorf("after the %s, %d of %d requests approved in the no-change run: the test compares nothing",
				phase.name, approvals, len(bodies))
		}
	}
}
