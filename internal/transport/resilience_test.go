package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/obs"
)

// fastOpts keeps retry tests quick and deterministic.
func fastOpts(attempts int) Options {
	return Options{
		DialTimeout:  500 * time.Millisecond,
		WriteTimeout: time.Second,
		Attempts:     attempts,
		RetryBase:    2 * time.Millisecond,
		RetryMax:     10 * time.Millisecond,
		Seed:         1,
	}
}

func gaugeValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestTCPConcurrentSendsNoInterleaving is the frame-interleaving
// regression: many goroutines sending to the same peer must not corrupt
// the length-prefixed stream. On the pre-fix transport (writeFrame on
// the shared conn with no per-connection write lock) the receiver sees
// torn frames — decode errors or a wedged stream — and the race
// detector flags the unsynchronized writes.
func TestTCPConcurrentSendsNoInterleaving(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", fastOpts(1))
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

	const senders, each = 8, 25
	// Large payloads raise the odds that an unsynchronized write is split
	// across another sender's frame.
	payload := func(sender, seq int) []byte {
		p := make([]byte, 2048)
		for i := range p {
			p[i] = byte(sender*31 + seq)
		}
		return p
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for q := 0; q < each; q++ {
				if err := a.Send("B", fmt.Sprintf("k/%d/%d", s, q), payload(s, q)); err != nil {
					t.Errorf("send %d/%d: %v", s, q, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	for i := 0; i < senders*each; i++ {
		env, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v (stream corrupted?)", i, err)
		}
		var s, q int
		if _, err := fmt.Sscanf(env.Kind, "k/%d/%d", &s, &q); err != nil {
			t.Fatalf("frame %d: bad kind %q", i, env.Kind)
		}
		want := payload(s, q)
		if len(env.Payload) != len(want) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(env.Payload), len(want))
		}
		for j, c := range env.Payload {
			if c != want[j] {
				t.Fatalf("frame %d (%s): payload byte %d = %d, want %d", i, env.Kind, j, c, want[j])
			}
		}
	}
}

// TestTCPDialFailureRetriesAndMetrics: peer down at dial time. Every
// attempt fails to connect; the send errors after the bounded attempts
// and the dial-error and retry counters match.
func TestTCPDialFailureRetriesAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := ListenTCP("A", "127.0.0.1:0", fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Instrument(reg)

	// A listener that is already gone: its port refuses connections.
	dead, err := ListenTCP("dead", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	a.AddPeer("dead", deadAddr)

	if err := a.Send("dead", "k", nil); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(`transport_dial_errors_total{peer="dead"}`); got != 3 {
		t.Errorf("dial errors = %d, want 3 (one per attempt)", got)
	}
	if got := snap.CounterValue(`transport_send_retries_total{peer="dead"}`); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := snap.CounterValue(`transport_redials_total{peer="dead"}`); got != 2 {
		t.Errorf("redials = %d, want 2", got)
	}
}

// TestTCPPeerDiesMidStream: an established connection goes away (the
// peer closes entirely); subsequent sends fail the write, evict the
// connection, and the error taxonomy plus send-error/redial metrics
// reflect it without the peer-conns gauge ever going negative.
func TestTCPPeerDiesMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := ListenTCP("A", "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Instrument(reg)
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("B", b.Addr())
	if err := a.Send("B", "k", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.Close() // peer dies: cached conn is now a dead socket

	// The first write may land in the kernel buffer before the RST comes
	// back, so allow a few sends; one must eventually error (redial hits
	// the closed listener).
	var sendErr error
	for i := 0; i < 20 && sendErr == nil; i++ {
		sendErr = a.Send("B", "k", []byte("after death"))
		time.Sleep(5 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("sends kept succeeding after peer death")
	}
	snap := reg.Snapshot()
	errs := snap.CounterValue(`transport_send_errors_total{peer="B"}`) +
		snap.CounterValue(`transport_dial_errors_total{peer="B"}`)
	if errs == 0 {
		t.Error("no send/dial errors counted after peer death")
	}
	if got := gaugeValue(t, reg, `transport_peer_conns{peer="B"}`); got < 0 {
		t.Errorf("peer conns gauge = %d, must never go negative", got)
	}
}

// TestTCPFailedSendEvictsOnlyItsConn is the stale-connection-clobber
// regression: every concurrent writer that fails on one shared dead
// connection must evict it exactly once. On the pre-fix transport each
// failer ran delete+gauge.Dec unconditionally, so eight blocked writers
// failing together drove transport_peer_conns to -7 (and a failer could
// just as well evict a fresh connection another goroutine had dialed,
// leaking it).
func TestTCPFailedSendEvictsOnlyItsConn(t *testing.T) {
	reg := obs.NewRegistry()
	opts := fastOpts(1)
	opts.WriteTimeout = 2 * time.Second // backstop; the severed conn fails faster
	a, err := ListenTCP("A", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Instrument(reg)

	// A raw listener that accepts and never reads, so writes back up and
	// all senders pile onto the same blocked connection.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	a.AddPeer("sink", l.Addr().String())

	big := make([]byte, 4<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Send("sink", "k", big) // most of these must fail; that's the point
		}()
	}
	time.Sleep(300 * time.Millisecond) // let the writers stack up on the one conn
	first := <-conns
	first.Close() // sever it: every blocked writer fails at once
	go func() {
		for c := range conns {
			c.Close() // sever any re-dialed conns too
		}
	}()
	wg.Wait()
	if got := gaugeValue(t, reg, `transport_peer_conns{peer="sink"}`); got < 0 {
		t.Fatalf("peer conns gauge = %d; failed writers double-evicted the connection", got)
	}
}

// TestTCPSendDuringClose: the node is closed while sends are in flight;
// they must settle to ErrClosed (never panic, never hang in a backoff).
func TestTCPSendDuringClose(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("B", b.Addr())
	if err := a.Send("B", "k", nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				if err := a.Send("B", "k", []byte("x")); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("send during close: %v, want ErrClosed", err)
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	a.Close()
	wg.Wait()
	if err := a.Send("B", "k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

// TestTCPRecvContextCancelInFlight: canceling one RecvContext must not
// disturb frames still in flight — a later receive with a live context
// still drains them.
func TestTCPRecvContextCancelInFlight(t *testing.T) {
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

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.RecvContext(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled recv: %v, want context.Canceled", err)
	}

	const frames = 10
	for i := 0; i < frames; i++ {
		if err := a.Send("B", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		env, err := b.RecvContext(context.Background())
		if err != nil {
			t.Fatalf("frame %d after cancel: %v", i, err)
		}
		if env.Payload[0] != byte(i) {
			t.Fatalf("frame %d: payload %d", i, env.Payload[0])
		}
	}
}

// TestTCPRedialOnWriteFailure: the peer restarts on the same address;
// a send over the stale cached connection must redial and deliver
// within its retry budget, counting the redial.
func TestTCPRedialOnWriteFailure(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := ListenTCP("A", "127.0.0.1:0", fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Instrument(reg)
	b1, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	a.AddPeer("B", addr)
	if err := a.Send("B", "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	b1.Close()
	// Restart the peer on the same port; the cached conn is stale.
	b2, err := ListenTCP("B", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The stale conn may swallow one write into the kernel buffer before
	// erroring; send until a frame actually lands on the restarted peer.
	got := make(chan Envelope, 1)
	go func() {
		if env, err := b2.RecvTimeout(5 * time.Second); err == nil {
			got <- env
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	delivered := false
	for !delivered && time.Now().Before(deadline) {
		if err := a.Send("B", "k", []byte("two")); err != nil {
			t.Fatalf("send with redial budget failed: %v", err)
		}
		select {
		case <-got:
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no frame reached the restarted peer")
	}
	snap := reg.Snapshot()
	if snap.CounterValue(`transport_redials_total{peer="B"}`) == 0 &&
		snap.CounterValue(`transport_send_errors_total{peer="B"}`) == 0 {
		t.Error("expected a redial or send error against the stale connection")
	}
}

// TestTCPPeerCloseClearsDialedConn: when the peer closes a connection
// this node dialed, the connection's read loop drops it from the peer, so
// the next Send redials and delivers on its first attempt — no failed
// write on the dead socket, no retry.
func TestTCPPeerCloseClearsDialedConn(t *testing.T) {
	reg := obs.NewRegistry()
	a := DialTCP("A", fastOpts(4))
	defer a.Close()
	a.Instrument(reg)
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("B", b.Addr())
	if err := a.Send("B", "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	env, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const conns = `transport_peer_conns{peer="B"}`
	if got := gaugeValue(t, reg, conns); got != 1 {
		t.Fatalf("%s = %d after the first send, want 1", conns, got)
	}
	env.conn.Close() // the server side hangs up

	for deadline := time.Now().Add(2 * time.Second); gaugeValue(t, reg, conns) != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := a.Send("B", "k", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if env, err := b.RecvTimeout(2 * time.Second); err != nil || string(env.Payload) != "two" {
		t.Fatalf("second frame: %+v, %v", env, err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		`transport_send_errors_total{peer="B"}`:  0,
		`transport_send_retries_total{peer="B"}`: 0,
		`transport_redials_total{peer="B"}`:      1,
	} {
		if got := snap.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := gaugeValue(t, reg, conns); got != 1 {
		t.Errorf("%s = %d after the redial, want 1", conns, got)
	}
}

// TestTCPSlowDialDoesNotBlockOtherPeers: a dial to a blackholed address
// must not stall sends to a healthy peer (per-peer locking; the old
// transport dialed under the node-wide mutex).
func TestTCPSlowDialDoesNotBlockOtherPeers(t *testing.T) {
	opts := fastOpts(1)
	opts.DialTimeout = 2 * time.Second
	a, err := ListenTCP("A", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	healthy, err := ListenTCP("H", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	a.AddPeer("H", healthy.Addr())
	// RFC 5737 TEST-NET address: connect attempts hang until the timeout.
	a.AddPeer("blackhole", "192.0.2.1:9")

	slow := make(chan error, 1)
	go func() { slow <- a.Send("blackhole", "k", nil) }()
	time.Sleep(10 * time.Millisecond) // let the dial start

	start := time.Now()
	if err := a.Send("H", "k", []byte("fast path")); err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("healthy send took %v behind a hung dial", elapsed)
	}
	if _, err := healthy.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-slow:
	case <-time.After(5 * time.Second):
		t.Fatal("blackhole dial never returned")
	}
}
