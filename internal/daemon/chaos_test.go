package daemon

import (
	"context"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// chaosPlan is the fault mix the daemon must survive: lost commands,
// lost replies, delivery delays and duplicated commands, all seeded.
func chaosPlan(seed int64) transport.FaultPlan {
	return transport.FaultPlan{
		Seed:     seed,
		DropIn:   0.2,
		DropOut:  0.2,
		DupIn:    0.1,
		DelayIn:  2 * time.Millisecond,
		DelayOut: 2 * time.Millisecond,
	}
}

// chaosClient sends one command and waits for the matching reply,
// retrying the whole exchange over the lossy link. Replies are matched
// by the Command.ID echo, so late or duplicated replies from earlier
// attempts are discarded instead of being mistaken for this one.
func chaosClient(t *testing.T, client *transport.TCPNode, id string, cmd Command) Reply {
	t.Helper()
	cmd.ID = id
	body := appendCommand(nil, cmd)
	deadline := time.Now().Add(20 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		if err := client.Send("coalitiond", "cmd", body); err != nil {
			continue // transport exhausted its retries; go around again
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
	t.Fatalf("command %s (%s): no matching reply before deadline", id, cmd.Cmd)
	return Reply{}
}

// TestChaosJoinRequestRevokeRequest drives a full join → authorize →
// revoke → authorize cycle through a fault-injected transport — dropped
// and delayed frames in both directions, duplicated commands, one
// severed TCP connection (a daemon listener restart) and one severed
// Faulty direction — and requires the daemon to reach the correct
// grant/deny decisions throughout, with the transport's retry metrics
// visible in the shared registry. Run under -race in scripts/check.sh.
func TestChaosJoinRequestRevokeRequest(t *testing.T) {
	reg := obs.NewRegistry()
	topts := transport.Options{
		DialTimeout:  time.Second,
		WriteTimeout: time.Second,
		Attempts:     4,
		RetryBase:    time.Millisecond,
		RetryMax:     10 * time.Millisecond,
		Seed:         1,
	}
	d, err := New(Config{
		Domains:   []string{"D1", "D2", "D3"},
		Users:     []string{"alice", "bob", "carol"},
		Metrics:   reg,
		Workers:   2,
		Transport: topts,
	})
	if err != nil {
		t.Fatal(err)
	}

	node1, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := node1.Addr()
	faulty1 := transport.NewFaulty(node1, chaosPlan(42))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ctx, faulty1) }()

	client, err := transport.ListenTCP("chaosctl", "127.0.0.1:0", topts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(reg)
	client.AddPeer("coalitiond", addr)

	// Phase 1: join. Duplicated joins of the same domain fail with
	// "already a member" — under DupIn either reply may come back first
	// for this ID, and both prove the join took effect.
	rep := chaosClient(t, client, "c1", Command{Cmd: "join", Domain: "D4"})
	if !rep.OK && !strings.Contains(rep.Detail, "already a member") {
		t.Fatalf("join failed: %+v", rep)
	}

	// Phase 2: a joint write must be approved.
	rep = chaosClient(t, client, "c2", Command{Cmd: "write", Data: "v2", Signers: []string{"alice", "bob"}})
	if !rep.OK {
		t.Fatalf("pre-revocation write denied: %+v", rep)
	}

	// Phase 3: sever the TCP connection outright — restart the daemon's
	// listener on the same address. The client's cached connection is
	// dead; its next send must fail the write, redial, and recover.
	node1.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve after listener close: %v", err)
	}
	node2, err := d.Listen(addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer node2.Close()
	faulty2 := transport.NewFaulty(node2, chaosPlan(43))
	go func() { serveDone <- d.Serve(ctx, faulty2) }()
	time.Sleep(20 * time.Millisecond) // let the dead conn's RST reach the client

	// Also sever the inbound Faulty direction for a moment: commands
	// vanish until it heals, and the client's protocol retries ride it out.
	faulty2.Sever(transport.Inbound)
	go func() {
		time.Sleep(50 * time.Millisecond)
		faulty2.Heal(transport.Inbound)
	}()
	rep = chaosClient(t, client, "c3", Command{Cmd: "revoke"})
	if rep.ID != "c3" {
		t.Fatalf("revoke reply mismatched: %+v", rep)
	}

	// Phase 4: the same joint write must now be denied — the revocation
	// must hold no matter how battered the transport was.
	rep = chaosClient(t, client, "c4", Command{Cmd: "write", Data: "v3", Signers: []string{"alice", "bob"}})
	if rep.OK {
		t.Fatalf("post-revocation write approved: %+v", rep)
	}
	if !strings.Contains(rep.Detail, "denied") && !strings.Contains(rep.Detail, "revoked") {
		t.Errorf("post-revocation denial detail = %q", rep.Detail)
	}

	// Reads ride a different group and must still be granted.
	rep = chaosClient(t, client, "c5", Command{Cmd: "read", Signers: []string{"carol"}})
	if !rep.OK {
		t.Fatalf("post-revocation read denied: %+v", rep)
	}

	// The listener restart must have driven the client through the
	// transport's retry path, and the fault plan must have actually
	// perturbed traffic.
	snap := reg.Snapshot()
	retries := snap.CounterValue(`transport_send_retries_total{peer="coalitiond"}`)
	redials := snap.CounterValue(`transport_redials_total{peer="coalitiond"}`)
	if retries == 0 && redials == 0 {
		t.Error("no transport retries or redials recorded in the registry")
	}
	s1, s2 := faulty1.Stats(), faulty2.Stats()
	injected := s1.DroppedIn + s1.DroppedOut + s1.DelayedIn + s1.DelayedOut +
		s2.DroppedIn + s2.DroppedOut + s2.DelayedIn + s2.DelayedOut
	if injected == 0 {
		t.Error("fault plan injected nothing")
	}
	if s2.SeveredIn == 0 {
		t.Log("severed window saw no traffic (commands arrived after heal); acceptable")
	}
	t.Logf("chaos: retries=%d redials=%d faults1=%+v faults2=%+v", retries, redials, s1, s2)

	cancel()
	if err := <-serveDone; err != context.Canceled {
		t.Fatalf("serve exit: %v", err)
	}
}
