package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// echoServer answers commands on the endpoint with Reply{ID: cmd.ID,
// Detail: "echo:"+cmd.Data}, optionally jittering delivery order so
// replies come back out of request order — the situation the mux exists
// for. It stops when the endpoint closes.
func echoServer(t *testing.T, ep transport.Endpoint, jitter time.Duration) {
	t.Helper()
	go func() {
		var wg sync.WaitGroup
		defer wg.Wait()
		rng := rand.New(rand.NewSource(7))
		var mu sync.Mutex
		for {
			env, err := ep.RecvContext(context.Background())
			if err != nil {
				return
			}
			cmd, err := DecodeCommand(env.Payload)
			if err != nil {
				continue
			}
			body := EncodeReply(Reply{ID: cmd.ID, OK: true, Detail: "echo:" + cmd.Data})
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(jitter) + 1))
			mu.Unlock()
			wg.Add(1)
			go func(from string) {
				defer wg.Done()
				time.Sleep(d)
				_ = ep.Send(from, "reply", body)
			}(env.From)
		}
	}()
}

// TestClientConcurrentCallsCorrelate: many goroutines share one client
// over one connection; replies are jittered out of order, yet every call
// gets exactly the reply to its own command.
func TestClientConcurrentCallsCorrelate(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	srv := net.Endpoint("srv")
	echoServer(t, srv, 3*time.Millisecond)

	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", 0, reg)
	defer c.Close()

	const goroutines, calls = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*calls)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				marker := fmt.Sprintf("g%d-i%d", g, i)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				rep, err := c.Call(ctx, Command{Cmd: "noop", Data: marker})
				cancel()
				if err != nil {
					errs <- err
					continue
				}
				if rep.Detail != "echo:"+marker {
					errs <- fmt.Errorf("cross-wired reply: sent %q, got %q", marker, rep.Detail)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Snapshot().CounterValue(`daemon_mux_calls_total{outcome="ok"}`); got != goroutines*calls {
		t.Fatalf("ok calls = %d, want %d", got, goroutines*calls)
	}
	if got := reg.Gauge(MetricMuxInflight).Value(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

// TestClientShedsStaleEnvelopes: unsolicited and malformed envelopes —
// replies to IDs nobody is waiting on, wrong kinds, garbage payloads —
// are counted and shed without disturbing a live call.
func TestClientShedsStaleEnvelopes(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	srv := net.Endpoint("srv")

	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", 0, reg)
	defer c.Close()

	ghost := EncodeReply(Reply{ID: "ghost", OK: true})
	noID := EncodeReply(Reply{OK: true})
	for _, env := range []struct{ kind, body string }{
		{"reply", string(ghost)},  // no pending call under this ID
		{"reply", "not a reply"},  // undecodable
		{"reply", string(noID)},   // reply without correlation ID
		{"gossip", string(ghost)}, // wrong kind entirely
	} {
		if err := srv.Send("cli", env.kind, []byte(env.body)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool {
		return reg.Counter(MetricMuxStale).Value() == 4
	})

	// The client is still healthy: a real call completes.
	echoServer(t, srv, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Call(ctx, Command{Cmd: "noop", Data: "alive"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detail != "echo:alive" {
		t.Fatalf("reply = %q", rep.Detail)
	}
}

// TestClientCallTimeout: a call whose reply never comes fails with its
// context's error and is counted in daemon_mux_timeouts_total; the
// pending slot is released.
func TestClientCallTimeout(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	net.Endpoint("srv") // exists but never answers

	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", 0, reg)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, Command{Cmd: "noop"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := reg.Counter(MetricMuxTimeouts).Value(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	if got := reg.Gauge(MetricMuxInflight).Value(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestClientConnLostFailsPending: when the shared connection dies with
// calls in flight, every pending call fails with ErrConnLost — and so do
// all future calls, immediately.
func TestClientConnLostFailsPending(t *testing.T) {
	net := transport.NewMemory()
	net.Endpoint("srv") // never answers

	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", 0, reg)
	defer c.Close()

	const pending = 3
	errs := make(chan error, pending)
	var wg sync.WaitGroup
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Call(context.Background(), Command{Cmd: "noop"})
			errs <- err
		}()
	}
	waitFor(t, time.Second, func() bool {
		return reg.Gauge(MetricMuxInflight).Value() == pending
	})
	net.Close() // the connection is gone

	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("pending call err = %v, want ErrConnLost", err)
		}
	}
	if got := reg.Counter(MetricMuxConnLost).Value(); got != 1 {
		t.Fatalf("conn_lost = %d, want 1", got)
	}
	if _, err := c.Call(context.Background(), Command{Cmd: "noop"}); !errors.Is(err, ErrConnLost) {
		t.Fatalf("post-loss call err = %v, want ErrConnLost", err)
	}
}

// TestClientResendHealsLostRequest: a server that loses the first copy
// of a command still answers — the client retransmits under the same ID
// until the reply lands.
func TestClientResendHealsLostRequest(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	srv := net.Endpoint("srv")
	go func() {
		seen := make(map[string]int)
		for {
			env, err := srv.RecvContext(context.Background())
			if err != nil {
				return
			}
			cmd, err := DecodeCommand(env.Payload)
			if err != nil {
				continue
			}
			seen[cmd.ID]++
			if seen[cmd.ID] < 2 {
				continue // first copy vanishes
			}
			body := EncodeReply(Reply{ID: cmd.ID, OK: true, Detail: "second time"})
			_ = srv.Send(env.From, "reply", body)
		}
	}()

	reg := obs.NewRegistry()
	c := NewClient(net.Endpoint("cli"), "srv", 10*time.Millisecond, reg)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Call(ctx, Command{Cmd: "noop"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detail != "second time" {
		t.Fatalf("reply = %q", rep.Detail)
	}
	if got := reg.Counter(MetricMuxResends).Value(); got < 1 {
		t.Fatalf("resends = %d, want >= 1", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
