package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/obs"
)

// The three TestMemory* tests keep the names they had when this package
// also carried an in-memory bus. They now run on a dial-only TCP node,
// the shape every daemon client takes.

// TestMemorySendRecv: a delivered envelope carries the sender's name, the
// addressee's name, the kind and the payload.
func TestMemorySendRecv(t *testing.T) {
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := DialTCP("A")
	defer a.Close()
	a.AddPeer("B", b.Addr())
	if err := a.Send("B", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	env, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "A" || env.To != "B" || env.Kind != "ping" || string(env.Payload) != "hello" {
		t.Errorf("envelope = %+v", env)
	}
}

// TestMemoryUnknownPeer: a dial-only node refuses a send to a name it was
// never given an address for.
func TestMemoryUnknownPeer(t *testing.T) {
	a := DialTCP("A")
	defer a.Close()
	if err := a.Send("ghost", "k", nil); !errors.Is(err, errUnknownPeer) {
		t.Errorf("send to ghost: %v", err)
	}
}

// TestMemoryClose: Close wakes a blocked Recv with ErrClosed, a Send after
// Close fails with ErrClosed even to a known peer, and a second Close is a
// no-op.
func TestMemoryClose(t *testing.T) {
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := DialTCP("A")
	a.AddPeer("B", b.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := a.Send("B", "k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	a.Close() // idempotent
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("B", b.Addr())
	b.AddPeer("A", a.Addr())

	if err := a.Send("B", "req", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	env, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "A" || string(env.Payload) != "over tcp" {
		t.Errorf("envelope = %+v", env)
	}
	// Reply re-uses the reverse path.
	if err := b.Send("A", "resp", []byte("ack")); err != nil {
		t.Fatal(err)
	}
	env2, err := a.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Kind != "resp" || string(env2.Payload) != "ack" {
		t.Errorf("reply = %+v", env2)
	}
}

func TestTCPManyFrames(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("B", b.Addr())
	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send("B", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		env, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if env.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: got %d", i, env.Payload[0])
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("nowhere", "k", nil); !errors.Is(err, errUnknownPeer) {
		t.Errorf("send to unknown peer: %v", err)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.RecvTimeout(10 * time.Millisecond); !errors.Is(err, errRecvTimeout) {
		t.Errorf("timeout: %v", err)
	}
}

// TestTCPPayloadNotAliased: Send is done with the caller's buffer when it
// returns, so writing to the buffer afterwards changes nothing sent.
func TestTCPPayloadNotAliased(t *testing.T) {
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := DialTCP("A")
	defer a.Close()
	a.AddPeer("B", b.Addr())
	payload := []byte("original")
	if err := a.Send("B", "k", payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	env, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "original" {
		t.Errorf("payload = %q: Send aliased the caller's buffer", env.Payload)
	}
}

// TestTCPConcurrentSenders: many nodes, each on a connection of its own,
// send to one listener at once, and every frame arrives.
func TestTCPConcurrentSenders(t *testing.T) {
	dst, err := ListenTCP("dst", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	const senders, each = 8, 20
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		src := DialTCP(fmt.Sprintf("s%d", i))
		defer src.Close()
		src.AddPeer("dst", dst.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := src.Send("dst", "k", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		if _, err := dst.RecvTimeout(2 * time.Second); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
}

// TestTCPReplyOnArrivalConnection: a dial-only client (no listener, no
// address) reaches a server, and the server's concurrent replies come
// back whole on the client's own connection — the server dials nothing.
// An envelope that did not arrive over TCP has nothing to reply on.
func TestTCPReplyOnArrivalConnection(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ListenTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(reg)
	cli := DialTCP("cli")
	defer cli.Close()
	if cli.Addr() != "" {
		t.Fatalf("dial-only node has address %q", cli.Addr())
	}
	cli.AddPeer("srv", srv.Addr())

	if err := cli.Send("srv", "ask", nil); err != nil {
		t.Fatal(err)
	}
	req, err := srv.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := []byte(fmt.Sprintf("%d-%d-%0512d", w, i, 0))
				if err := srv.Reply(req, "answer", payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := 0; i < writers*each; i++ {
		env, err := cli.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if env.From != "srv" || env.To != "cli" || env.Kind != "answer" || len(env.Payload) < 512 {
			t.Fatalf("reply %d = %+v", i, env)
		}
		seen[string(env.Payload)] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("%d distinct replies, want %d", len(seen), writers*each)
	}
	for _, m := range reg.Snapshot().Gauges {
		if strings.HasPrefix(m.Name, MetricPeerConns) {
			t.Errorf("server dialed a connection: %s = %d", m.Name, m.Value)
		}
	}
	if err := srv.Reply(Envelope{From: "cli"}, "answer", nil); !errors.Is(err, errUnknownPeer) {
		t.Errorf("reply without a connection: %v", err)
	}
}
