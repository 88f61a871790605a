package daemon

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// replTopts is the fleet's transport policy: short deadlines, a few
// retries, deterministic jitter.
func replTopts(seed int64) transport.Options {
	return transport.Options{
		DialTimeout:  time.Second,
		WriteTimeout: time.Second,
		Attempts:     4,
		RetryBase:    time.Millisecond,
		RetryMax:     10 * time.Millisecond,
		Seed:         seed,
	}
}

// replChaosPlan injects drops, duplicates and delays on both the
// command path and the replication stream.
func replChaosPlan(seed int64) transport.FaultPlan {
	return transport.FaultPlan{
		Seed:     seed,
		DropIn:   0.15,
		DropOut:  0.15,
		DupIn:    0.1,
		DelayIn:  time.Millisecond,
		DelayOut: time.Millisecond,
	}
}

// replFollower is one running follower under fault injection.
type replFollower struct {
	f      *Follower
	node   *transport.TCPNode
	faulty *transport.Faulty
	cancel context.CancelFunc
	done   chan error
}

// startFollower boots a follower against the writer's address with a
// tight resync threshold, behind its own Faulty wrapper.
func startFollower(t *testing.T, name, writerAddr string, seed int64) *replFollower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		Name:        name,
		WriterAddr:  writerAddr,
		Metrics:     obs.NewRegistry(),
		Transport:   replTopts(seed),
		ResyncAfter: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faulty := transport.NewFaulty(node, replChaosPlan(seed))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Serve(ctx, faulty) }()
	return &replFollower{f: f, node: node, faulty: faulty, cancel: cancel, done: done}
}

// stop tears the follower down (rejoin and shutdown phases).
func (r *replFollower) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	r.node.Close()
	<-r.done
}

// waitSeq polls until the follower has applied at least seq, failing
// after the deadline. Returns how long convergence took.
func (r *replFollower) waitSeq(t *testing.T, seq uint64, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for time.Now().Before(deadline) {
		st := r.f.Applier().Status()
		if st.Ready && st.LastSeq >= seq {
			return time.Since(start)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower %s stuck at %+v, want seq >= %d within %s",
		r.node.Name(), r.f.Applier().Status(), seq, within)
	return 0
}

// waitClock polls until the follower's logical clock has reached at,
// failing after the deadline. A follower clock trails the writer's by
// up to one heartbeat, and a certificate issued at the writer's current
// time is "not valid yet" on a follower still behind it — so tests must
// wait for clock convergence, not just sequence convergence, before
// evaluating freshly issued certificates there.
func (r *replFollower) waitClock(t *testing.T, at clock.Time, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if st := r.f.Applier().Status(); st.Ready && st.Clock >= at {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower %s clock stuck at %v, want >= %v within %s",
		r.node.Name(), r.f.Applier().Status().Clock, at, within)
}

// askPeer sends one command to the named peer and waits for the matching
// reply, retrying the exchange over the lossy link (same protocol as
// chaosClient, but addressable to followers too).
func askPeer(t *testing.T, client *transport.TCPNode, peer, id string, cmd Command) Reply {
	t.Helper()
	cmd.ID = id
	body := appendCommand(nil, cmd)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Send(peer, "cmd", body); err != nil {
			continue
		}
		recvBy := time.Now().Add(300 * time.Millisecond)
		for {
			remain := time.Until(recvBy)
			if remain <= 0 {
				break
			}
			env, err := client.RecvTimeout(remain)
			if err != nil {
				break
			}
			if rep, err := decodeReply(env.Payload); err == nil && rep.ID == id {
				return rep
			}
		}
	}
	t.Fatalf("command %s (%s) to %s: no matching reply before deadline", id, cmd.Cmd, peer)
	return Reply{}
}

// TestChaosReplicatedFleet runs a writer and two followers over
// fault-injected transports through the full fleet lifecycle: followers
// catch up from a snapshot handoff, serve writer-signed requests at
// their watermark, see a revocation within the staleness bound, survive
// a follower rejoin and a full writer process restart (data dir replay +
// re-journal), and converge to the writer's final epoch and watermark.
// Run under -race in scripts/check.sh.
func TestChaosReplicatedFleet(t *testing.T) {
	dataDir := t.TempDir()
	newWriterDaemon := func() *Daemon {
		d, err := New(Config{
			Domains:           []string{"D1", "D2", "D3"},
			Users:             []string{"alice", "bob", "carol"},
			Metrics:           obs.NewRegistry(),
			Workers:           2,
			Transport:         replTopts(7),
			DataDir:           dataDir,
			Replicate:         true,
			ReplBatch:         16,
			ReplHeartbeat:     50 * time.Millisecond,
			ReplSnapshotEvery: 1 << 20, // periodic refresh exercised in unit tests; keep the stream tail-only here
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := newWriterDaemon()
	node1, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writerAddr := node1.Addr()
	faulty1 := transport.NewFaulty(node1, replChaosPlan(71))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ctx, faulty1) }()

	f1 := startFollower(t, "f1", writerAddr, 11)
	defer f1.stop(t)
	f2 := startFollower(t, "f2", writerAddr, 12)

	client, err := transport.ListenTCP("chaosctl", "127.0.0.1:0", replTopts(9))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.AddPeer("coalitiond", writerAddr)
	client.AddPeer("f1", f1.node.Addr())
	client.AddPeer("f2", f2.node.Addr())

	// Phase 1: both followers bootstrap from the snapshot handoff and
	// reach the writer's head despite the fault plan.
	head := d.wal.Seq()
	f1.waitSeq(t, head, 15*time.Second)
	f2.waitSeq(t, head, 15*time.Second)

	// Phase 2: coalition dynamics on the writer — a domain joins, which
	// re-anchors the server (epoch bump) — then a signed read request
	// evaluates successfully on both followers at their watermark.
	rep := askPeer(t, client, "coalitiond", "r1", Command{Cmd: "join", Domain: "D4"})
	if !rep.OK && !strings.Contains(rep.Detail, "already a member") {
		t.Fatalf("join failed: %+v", rep)
	}
	head = d.wal.Seq()
	f1.waitSeq(t, head, 15*time.Second)
	f2.waitSeq(t, head, 15*time.Second)

	rep = askPeer(t, client, "coalitiond", "r2", Command{Cmd: "sign", Signers: []string{"carol"}})
	if !rep.OK {
		t.Fatalf("sign read request failed: %+v", rep)
	}
	signedRead := rep.Data
	// Signing mints identity certificates at the writer's current clock;
	// follower clocks trail it by up to a heartbeat, so wait for them
	// before evaluating the fresh certificates there.
	signClk := d.alliance.Clock().Now()
	f1.waitClock(t, signClk, 15*time.Second)
	f2.waitClock(t, signClk, 15*time.Second)
	for i, peer := range []string{"f1", "f2"} {
		rep = askPeer(t, client, peer, fmt.Sprintf("r3-%d", i), Command{Cmd: "authorize", Data: signedRead})
		if !rep.OK {
			t.Fatalf("authorize on %s denied: %+v", peer, rep)
		}
		if !strings.Contains(rep.Detail, "epoch") {
			t.Errorf("authorize detail on %s lacks position: %q", peer, rep.Detail)
		}
	}

	// Phase 3: revocation visibility. Sign a write request first, prove
	// a follower honors it, revoke G_write on the writer, and require
	// every follower to deny the same pre-signed request within the
	// staleness bound (heartbeat + resync + transport retries; the
	// documented bound, padded generously for the fault plan).
	rep = askPeer(t, client, "coalitiond", "r5", Command{Cmd: "sign", Group: "G_write", Op: "write", Data: "v2", Signers: []string{"alice", "bob"}})
	if !rep.OK {
		t.Fatalf("sign write request failed: %+v", rep)
	}
	signedWrite := rep.Data
	f1.waitClock(t, d.alliance.Clock().Now(), 15*time.Second)
	rep = askPeer(t, client, "f1", "r6", Command{Cmd: "authorize", Data: signedWrite})
	if !rep.OK {
		t.Fatalf("pre-revocation write authorize denied on f1: %+v", rep)
	}
	rep = askPeer(t, client, "coalitiond", "r7", Command{Cmd: "revoke"})
	if !rep.OK {
		t.Fatalf("revoke failed: %+v", rep)
	}
	revokedAt := time.Now()
	head = d.wal.Seq()
	for _, r := range []*replFollower{f1, f2} {
		took := r.waitSeq(t, head, 15*time.Second)
		t.Logf("revocation visible on %s after %s", r.node.Name(), took)
	}
	if elapsed := time.Since(revokedAt); elapsed > 15*time.Second {
		t.Fatalf("revocation took %s to replicate, beyond any documented bound", elapsed)
	}
	for i, peer := range []string{"f1", "f2"} {
		rep = askPeer(t, client, peer, fmt.Sprintf("r8-%d", i), Command{Cmd: "authorize", Data: signedWrite})
		if rep.OK {
			t.Fatalf("post-revocation write authorize approved on %s: %+v", peer, rep)
		}
	}

	// Phase 4: follower rejoin. f2 goes away and a fresh instance under
	// the same name (new address, empty state) must re-bootstrap from a
	// snapshot handoff and catch back up.
	f2.stop(t)
	f2b := startFollower(t, "f2", writerAddr, 13)
	defer f2b.stop(t)
	f2client := transport.DialTCP("chaosctl", replTopts(9)) // a fresh node reaches the new f2
	defer f2client.Close()
	f2client.AddPeer("f2", f2b.node.Addr())
	f2b.waitSeq(t, d.wal.Seq(), 15*time.Second)
	if st := f2b.f.Applier().Status(); st.Snapshots == 0 {
		t.Errorf("rejoined follower caught up without a snapshot handoff: %+v", st)
	}

	// Phase 5: writer process restart. The daemon recovers from its data
	// dir with fresh authority keys (the WAL is re-journaled at the live
	// epoch); followers detect the silence, resync, and converge on the
	// restarted writer's epoch and watermark.
	cancel()
	node1.Close()
	<-serveDone
	d.Close()

	d2 := newWriterDaemon()
	defer d2.Close()
	node2, err := d2.Listen(writerAddr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", writerAddr, err)
	}
	defer node2.Close()
	faulty2 := transport.NewFaulty(node2, replChaosPlan(72))
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { serveDone <- d2.Serve(ctx2, faulty2) }()

	head = d2.wal.Seq()
	f1.waitSeq(t, head, 20*time.Second)
	f2b.waitSeq(t, head, 20*time.Second)
	want := d2.server.Authz().Snapshot()
	for _, r := range []*replFollower{f1, f2b} {
		st := r.f.Applier().Status()
		if st.Epoch != want.Epoch || st.Watermark != want.Watermark {
			t.Fatalf("%s at epoch %d watermark %d after writer restart, writer at %d/%d",
				r.node.Name(), st.Epoch, st.Watermark, want.Epoch, want.Watermark)
		}
	}
	// Old signed requests died with the old authority keys; a freshly
	// signed one is honored across the restarted fleet. Each sign mints
	// identity certificates at the writer's just-ticked clock, so each
	// follower's clock must catch up before it can believe them.
	for i, fr := range []*replFollower{f1, f2b} {
		rep = askPeer(t, client, "coalitiond", fmt.Sprintf("r9-%d", i), Command{Cmd: "sign", Signers: []string{"carol"}})
		if !rep.OK {
			t.Fatalf("sign after writer restart failed: %+v", rep)
		}
		fr.waitClock(t, d2.alliance.Clock().Now(), 15*time.Second)
		peer, via := []string{"f1", "f2"}[i], []*transport.TCPNode{client, f2client}[i]
		rep = askPeer(t, via, peer, fmt.Sprintf("r10-%d", i), Command{Cmd: "authorize", Data: rep.Data})
		if !rep.OK {
			t.Fatalf("authorize on %s after writer restart denied: %+v", peer, rep)
		}
	}

	// The fleet must reject writes on followers outright.
	rep = askPeer(t, client, "f1", "r11", Command{Cmd: "write", Data: "v3", Signers: []string{"alice", "bob"}})
	if rep.OK || !strings.Contains(rep.Detail, "read-only") {
		t.Fatalf("follower accepted a write: %+v", rep)
	}

	// Fault plans must have actually perturbed traffic.
	s1, s2 := faulty1.Stats(), f1.faulty.Stats()
	if s1.DroppedIn+s1.DroppedOut+s1.DelayedIn+s1.DelayedOut+
		s2.DroppedIn+s2.DroppedOut+s2.DelayedIn+s2.DelayedOut == 0 {
		t.Error("fault plans injected nothing")
	}
	t.Logf("writer faults %+v, f1 faults %+v", s1, s2)
}
