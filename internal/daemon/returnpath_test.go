// The return path: every reply goes back on the connection its command
// arrived on. Nothing a frame says makes the daemon dial, clients that
// share a name each get their own replies, and one client that reads
// slowly holds up no one else.

package daemon

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// serveOnTCP serves d on a fresh metered TCP node until the test ends.
func serveOnTCP(t *testing.T, d *Daemon) *transport.TCPNode {
	t.Helper()
	node, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Serve(context.Background(), node)
	}()
	t.Cleanup(func() { node.Close(); <-done })
	return node
}

// assertNoDials fails if the registry saw the node dial anything.
func assertNoDials(t *testing.T, reg *obs.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	for _, m := range append(snap.Gauges, snap.Counters...) {
		if strings.HasPrefix(m.Name, transport.MetricPeerConns) || strings.HasPrefix(m.Name, transport.MetricDialErrors) {
			t.Errorf("daemon dialed: %s = %d", m.Name, m.Value)
		}
	}
}

// TestReplyIgnoresAddressInKind: a frame whose kind names an address
// ("cmd@<addr>") — a valid command and an undecodable one — is answered
// on the sender's own connection, and the daemon opens no connection to
// the named address.
func TestReplyIgnoresAddressInKind(t *testing.T) {
	reg := obs.NewRegistry()
	node := serveOnTCP(t, newDaemonWithRegistry(t, reg))

	bait, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bait.Close()
	dialed := make(chan struct{}, 1)
	go func() {
		if c, err := bait.Accept(); err == nil {
			c.Close()
			dialed <- struct{}{}
		}
	}()

	client := transport.DialTCP("probe")
	defer client.Close()
	client.AddPeer("coalitiond", node.Addr())
	kind := "cmd@" + bait.Addr().String()
	for _, c := range []struct {
		payload []byte
		ok      bool
	}{
		{EncodeCommand(Command{ID: "p1", Cmd: "read", Signers: []string{"carol"}}), true},
		{[]byte("not a command"), false},
	} {
		if err := client.Send("coalitiond", kind, c.payload); err != nil {
			t.Fatal(err)
		}
		env, err := client.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("no reply on the sender's connection: %v", err)
		}
		rep, err := DecodeReply(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK != c.ok || (c.ok && rep.ID != "p1") || (!c.ok && !strings.HasPrefix(rep.Detail, "bad command")) {
			t.Errorf("reply = %+v", rep)
		}
	}
	select {
	case <-dialed:
		t.Error("daemon dialed the address named in the frame kind")
	case <-time.After(200 * time.Millisecond):
	}
	assertNoDials(t, reg)
}

// TestSameNameClientsGetTheirOwnReplies: two Dial clients under one
// name (every policyctl run is "policyctl") make 4 000 concurrent calls;
// each call gets its own reply, none is shed as stale, and the daemon
// dials nothing.
func TestSameNameClientsGetTheirOwnReplies(t *testing.T) {
	const clients, callers, calls = 2, 8, 250
	reg := obs.NewRegistry()
	node := serveOnTCP(t, newDaemonWithRegistry(t, reg))

	creg := obs.NewRegistry()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli, err := Dial(ClientConfig{ServerAddr: node.Addr(), Name: "policyctl", Metrics: creg})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(c, g int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for i := 0; i < calls; i++ {
					// An unknown verb is answered at once, naming itself.
					verb := fmt.Sprintf("probe-%d-%d-%d", c, g, i)
					rep, err := cli.Call(ctx, Command{Cmd: verb})
					if err != nil {
						t.Error(err)
						return
					}
					if rep.Detail != "unknown command "+verb {
						t.Errorf("call %s got reply %+v", verb, rep)
						return
					}
				}
			}(c, g)
		}
	}
	wg.Wait()
	if got := creg.Counter(MetricMuxStale).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricMuxStale, got)
	}
	if got := creg.Counter(MetricMuxCalls, "outcome", "ok").Value(); got != clients*callers*calls {
		t.Errorf("%d calls answered, want %d", got, clients*callers*calls)
	}
	assertNoDials(t, reg)
}

// TestPipelineSlowReplyHoldsNoOneElse: while the reply to one client
// cannot be written, another client's reply still goes out.
func TestPipelineSlowReplyHoldsNoOneElse(t *testing.T) {
	p := newPipeline(pipelineConfig{
		Workers: 2,
		Handler: func(ctx context.Context, cmd Command) Reply { return Reply{OK: true} },
	})
	release := make(chan struct{})
	node := newFakeNode(nil)
	node.block = func(env transport.Envelope) {
		if env.From == "slow" {
			<-release
		}
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(context.Background(), node) }()

	node.envs <- transport.Envelope{From: "slow", Kind: "cmd", Payload: EncodeCommand(Command{ID: "s", Cmd: "read"})}
	node.envs <- transport.Envelope{From: "fast", Kind: "cmd", Payload: EncodeCommand(Command{ID: "f", Cmd: "read"})}
	deadline := time.Now().Add(5 * time.Second)
	for len(node.allReplies("fast")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the fast client's reply waited on the slow one")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	close(node.envs)
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := len(node.allReplies("slow")); got != 1 {
		t.Errorf("slow client got %d replies, want 1", got)
	}
}

// TestDialOpensNoListener: a Dial client has no address of its own.
func TestDialOpensNoListener(t *testing.T) {
	cli, err := Dial(ClientConfig{ServerAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if addr := cli.ep.(*transport.TCPNode).Addr(); addr != "" {
		t.Errorf("Dial node listens on %q", addr)
	}
}
