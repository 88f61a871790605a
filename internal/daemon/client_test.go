package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// loopback starts a listening server node "srv" and a dial-only client
// node "cli" that knows its address; both close when the test ends.
func loopback(t *testing.T) (srv, cli *transport.TCPNode) {
	t.Helper()
	srv, err := transport.ListenTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli = transport.DialTCP("cli")
	t.Cleanup(func() { cli.Close() })
	cli.AddPeer("srv", srv.Addr())
	return srv, cli
}

// echoServer answers commands on the endpoint with Reply{ID: cmd.ID,
// Detail: "echo:"+cmd.Data} on the connection each arrived on,
// optionally jittering delivery order so replies come back out of
// request order — the situation the mux exists for. It stops when the
// endpoint closes.
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
			cmd, err := decodeCommand(env.Payload)
			if err != nil {
				continue
			}
			body := encodeReply(Reply{ID: cmd.ID, OK: true, Detail: "echo:" + cmd.Data})
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(jitter) + 1))
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(d)
				_ = ep.Reply(env, "reply", body)
			}()
		}
	}()
}

// TestClientConcurrentCallsCorrelate: many goroutines share one client
// over one connection; replies are jittered out of order, yet every call
// gets exactly the reply to its own command.
func TestClientConcurrentCallsCorrelate(t *testing.T) {
	srv, cli := loopback(t)
	echoServer(t, srv, 3*time.Millisecond)

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 0, reg)
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
	if got := reg.Gauge(metricMuxInflight).Value(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

// TestClientShedsStaleEnvelopes: unsolicited and malformed envelopes —
// replies to IDs nobody is waiting on, wrong kinds, garbage payloads —
// arriving ahead of a live call's reply on its connection are counted
// and shed without disturbing the call.
func TestClientShedsStaleEnvelopes(t *testing.T) {
	srv, cli := loopback(t)
	ghost := encodeReply(Reply{ID: "ghost", OK: true})
	noID := encodeReply(Reply{OK: true})
	go func() {
		env, err := srv.RecvContext(context.Background())
		if err != nil {
			return
		}
		cmd, err := decodeCommand(env.Payload)
		if err != nil {
			return
		}
		for _, stray := range []struct{ kind, body string }{
			{"reply", string(ghost)},  // no pending call under this ID
			{"reply", "not a reply"},  // undecodable
			{"reply", string(noID)},   // reply without correlation ID
			{"gossip", string(ghost)}, // wrong kind entirely
		} {
			_ = srv.Reply(env, stray.kind, []byte(stray.body))
		}
		_ = srv.Reply(env, "reply", encodeReply(Reply{ID: cmd.ID, OK: true, Detail: "echo:" + cmd.Data}))
	}()

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 0, reg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Call(ctx, Command{Cmd: "noop", Data: "alive"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detail != "echo:alive" {
		t.Fatalf("reply = %q", rep.Detail)
	}
	// The strays came first on the one connection, so the receiver shed
	// every one of them before it delivered the reply.
	if got := reg.Counter(metricMuxStale).Value(); got != 4 {
		t.Fatalf("%s = %d, want 4", metricMuxStale, got)
	}
}

// TestClientCallTimeout: a call whose reply never comes fails with its
// context's error and is counted in daemon_mux_timeouts_total; the
// pending slot is released.
func TestClientCallTimeout(t *testing.T) {
	_, cli := loopback(t) // the server accepts but never answers

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 0, reg)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, Command{Cmd: "noop"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := reg.Counter(metricMuxTimeouts).Value(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	if got := reg.Gauge(metricMuxInflight).Value(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestClientConnLostFailsPending: when the client's endpoint closes
// under it with calls in flight, every pending call fails with
// errConnLost — and so do all future calls, immediately.
func TestClientConnLostFailsPending(t *testing.T) {
	_, cli := loopback(t) // the server never answers

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 0, reg)
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
		return reg.Gauge(metricMuxInflight).Value() == pending
	})
	cli.Close() // the connection is gone

	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, errConnLost) {
			t.Fatalf("pending call err = %v, want errConnLost", err)
		}
	}
	if got := reg.Counter(metricMuxConnLost).Value(); got != 1 {
		t.Fatalf("conn_lost = %d, want 1", got)
	}
	if _, err := c.Call(context.Background(), Command{Cmd: "noop"}); !errors.Is(err, errConnLost) {
		t.Fatalf("post-loss call err = %v, want errConnLost", err)
	}
}

// TestClientResendHealsLostRequest: a server that loses the first copy
// of a command still answers — the client retransmits under the same ID
// until the reply lands.
func TestClientResendHealsLostRequest(t *testing.T) {
	srv, cli := loopback(t)
	go func() {
		seen := make(map[string]int)
		for {
			env, err := srv.RecvContext(context.Background())
			if err != nil {
				return
			}
			cmd, err := decodeCommand(env.Payload)
			if err != nil {
				continue
			}
			seen[cmd.ID]++
			if seen[cmd.ID] < 2 {
				continue // first copy vanishes
			}
			body := encodeReply(Reply{ID: cmd.ID, OK: true, Detail: "second time"})
			_ = srv.Reply(env, "reply", body)
		}
	}()

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 10*time.Millisecond, reg)
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

// TestClientResendSweepHealsConcurrentCalls: with the first copy of every
// command lost, one resend sweep heals many calls in flight at once, each
// under its own ID, and a call that has returned is resent no more (run
// it under -race).
func TestClientResendSweepHealsConcurrentCalls(t *testing.T) {
	srv, cli := loopback(t)
	go func() {
		seen := make(map[string]int)
		for {
			env, err := srv.RecvContext(context.Background())
			if err != nil {
				return
			}
			cmd, err := decodeCommand(env.Payload)
			if err != nil {
				continue
			}
			if seen[cmd.ID]++; seen[cmd.ID] < 2 {
				continue // the first copy of every command vanishes
			}
			_ = srv.Reply(env, "reply", encodeReply(Reply{ID: cmd.ID, OK: true, Detail: cmd.Data}))
		}
	}()

	reg := obs.NewRegistry()
	c := newClient(cli, "srv", 10*time.Millisecond, reg)
	defer c.Close()
	const calls = 16
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			signers := []string{"alice", "bob"}
			data := fmt.Sprintf("call %d", i)
			rep, err := c.Call(ctx, Command{Cmd: "noop", Data: data, Signers: signers})
			signers[0] = "reused" // the caller owns its command again
			if err != nil || rep.Detail != data {
				t.Errorf("call %d: %+v, %v", i, rep, err)
			}
		}()
	}
	wg.Wait()
	resends := reg.Counter(MetricMuxResends).Value()
	if resends < calls {
		t.Fatalf("resends = %d, want at least one per call (%d)", resends, calls)
	}
	time.Sleep(50 * time.Millisecond) // five sweeps with nothing pending
	if got := reg.Counter(MetricMuxResends).Value(); got != resends {
		t.Errorf("resends rose from %d to %d with no call pending", resends, got)
	}
}

// failingEndpoint sends the first message and refuses every later one.
type failingEndpoint struct {
	clientEndpoint
	sent atomic.Int64
}

func (f *failingEndpoint) SendMessage(to, kind string, m transport.Message) error {
	if f.sent.Add(1) == 1 {
		return f.clientEndpoint.SendMessage(to, kind, m)
	}
	return errors.New("link down")
}

// TestClientResendFailureEndsCall: a resend that fails for good ends its
// call with that failure, long before the call's deadline.
func TestClientResendFailureEndsCall(t *testing.T) {
	_, cli := loopback(t) // the server answers nothing
	c := newClient(&failingEndpoint{clientEndpoint: cli}, "srv", 10*time.Millisecond, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, Command{Cmd: "noop"})
	if err == nil || !strings.Contains(err.Error(), "resend noop: link down") {
		t.Fatalf("call error %v, want the resend failure", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("the call failed after %v, want about one resend interval", waited)
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
