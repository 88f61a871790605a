package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/obs"
)

func TestMemorySendRecv(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a := net.Endpoint("A")
	b := net.Endpoint("B")
	if err := a.Send("B", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	env, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "A" || env.To != "B" || env.Kind != "ping" || string(env.Payload) != "hello" {
		t.Errorf("envelope = %+v", env)
	}
}

func TestMemoryUnknownPeer(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a := net.Endpoint("A")
	if err := a.Send("ghost", "k", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to ghost: %v", err)
	}
}

// TestMemoryInboxFullBackpressure: overflowing an undrained inbox is
// backpressure — the send fails with ErrInboxFull and is counted under
// transport_inbox_full_total.
func TestMemoryInboxFullBackpressure(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	reg := obs.NewRegistry()
	net.Instrument(reg)
	a := net.Endpoint("A")
	net.Endpoint("B") // registered but never draining
	var full error
	for i := 0; i < 1025; i++ {
		if err := a.Send("B", "k", nil); err != nil {
			full = err
			break
		}
	}
	if !errors.Is(full, ErrInboxFull) {
		t.Fatalf("overflowing send = %v, want ErrInboxFull", full)
	}
	if got := reg.Counter(MetricInboxFull).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricInboxFull, got)
	}
}

func TestMemoryRecvTimeout(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	b := net.Endpoint("B")
	if _, err := b.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
		t.Errorf("timeout: %v", err)
	}
}

func TestMemoryClose(t *testing.T) {
	net := NewMemory()
	a := net.Endpoint("A")
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	net.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v", err)
	}
	if err := a.Send("A", "k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	net.Close() // idempotent
}

func TestMemoryPayloadCopied(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a := net.Endpoint("A")
	b := net.Endpoint("B")
	payload := []byte("original")
	if err := a.Send("B", "k", payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	env, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "original" {
		t.Error("payload aliased caller's buffer")
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	dst := net.Endpoint("dst")
	const senders, each = 8, 20
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		src := net.Endpoint(fmt.Sprintf("s%d", i))
		wg.Add(1)
		go func(e Endpoint) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := e.Send("dst", "k", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		if _, err := dst.RecvTimeout(time.Second); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
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
	if err := a.Send("nowhere", "k", nil); !errors.Is(err, ErrUnknownPeer) {
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

// TestTCPPeerReaddress: a peer that restarts on a new ephemeral port (as
// every policyctl invocation does) must be re-dialed after AddPeer, not
// written to over the cached dead connection.
func TestTCPPeerReaddress(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ListenTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Instrument(reg)

	c1, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPeer("client", c1.Addr())
	if err := srv.Send("client", "reply", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close() // the first client goes away...

	c2, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv.AddPeer("client", c2.Addr()) // ...and comes back on a new port
	if err := srv.Send("client", "reply", []byte("two")); err != nil {
		t.Fatalf("send after re-address: %v", err)
	}
	env, err := c2.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("recv after re-address: %v", err)
	}
	if string(env.Payload) != "two" {
		t.Errorf("payload = %q", env.Payload)
	}
	if got := reg.Snapshot().CounterValue(`transport_send_errors_total{peer="client"}`); got != 0 {
		t.Errorf("send errors = %d, want 0 (stale conn must be dropped by AddPeer)", got)
	}
}
