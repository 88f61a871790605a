// Request/reply correlation under fault injection: the tests here pin
// down the bug class the mux client exists for. A client that treats
// "the next envelope" as "my reply" — the pre-mux policyctl logic —
// cross-wires the moment the link duplicates a frame; the mux client
// under the same fault plan correlates every reply to its caller, and a
// retried mutation executes exactly once thanks to the daemon's dedup
// cache.

package daemon

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// testDaemon builds a daemon on the shared three-domain fixture, serves
// it on a loopback TCP node named "coalitiond" and returns the node's
// address.
func testDaemon(t *testing.T, reg *obs.Registry) (*Daemon, string) {
	t.Helper()
	d := newDaemonWithRegistry(t, reg)
	return d, serveOnTCP(t, d).Addr()
}

// dialDaemon returns a dial-only client node named "cli" that knows the
// daemon at addr; it closes when the test ends.
func dialDaemon(t *testing.T, addr string) *transport.TCPNode {
	t.Helper()
	cli := transport.DialTCP("cli")
	t.Cleanup(func() { cli.Close() })
	cli.AddPeer("coalitiond", addr)
	return cli
}

// TestNaiveSingleRecvClientCrossWires demonstrates the bug: under
// guaranteed inbound duplication, a client that sends a command and
// takes the first envelope off the wire as its answer receives the
// duplicate of an *earlier* call's reply — the correlation ID it sent
// and the one it got back disagree. This is exactly the logic policyctl
// shipped with before the mux client.
func TestNaiveSingleRecvClientCrossWires(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := testDaemon(t, reg)

	// Every inbound envelope is delivered twice.
	ep := transport.NewFaulty(dialDaemon(t, addr), transport.FaultPlan{Seed: 1, DupIn: 1.0})

	naiveCall := func(id string) Reply {
		t.Helper()
		if err := ep.Send("coalitiond", "cmd", appendCommand(nil, Command{ID: id, Cmd: "audit"})); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// The naive move: first envelope back is assumed to be the answer.
		env, err := ep.RecvContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := decodeReply(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	crossWired := 0
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("naive-%d", i)
		if rep := naiveCall(id); rep.ID != id {
			crossWired++
		}
	}
	if crossWired == 0 {
		t.Fatal("naive single-recv client never cross-wired under DupIn=1.0; " +
			"the mux client (and this test) would be unnecessary")
	}
}

// TestMuxCorrelationUnderDupInjection is the fix half, run with -race:
// concurrent calls through one mux client over a link that duplicates
// and delays frames in both directions. Every call must get the reply
// to its own command (the daemon echoes the unknown command name, so
// replies are per-call distinguishable); duplicated commands must be
// answered from the dedup cache, and duplicated replies shed as stale.
func TestMuxCorrelationUnderDupInjection(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := testDaemon(t, reg)

	ep := transport.NewFaulty(dialDaemon(t, addr), transport.FaultPlan{
		Seed:   11,
		DupOut: 0.3, DupIn: 0.3,
		DelayOut: 2 * time.Millisecond, DelayIn: 2 * time.Millisecond,
	})
	c := newClient(ep, "coalitiond", 0, reg)
	defer c.Close()

	const goroutines, calls = 8, 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*calls)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				marker := fmt.Sprintf("probe-g%d-i%d", g, i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				rep, err := c.Call(ctx, Command{Cmd: marker})
				cancel()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", marker, err)
					continue
				}
				if want := "unknown command " + marker; rep.Detail != want {
					errs <- fmt.Errorf("cross-wired: sent %s, got reply %q", marker, rep.Detail)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(`daemon_mux_calls_total{outcome="ok"}`); got != goroutines*calls {
		t.Errorf("ok calls = %d, want %d", got, goroutines*calls)
	}
	stats := ep.Stats()
	if stats.DuplicatedOut == 0 || stats.DuplicatedIn == 0 {
		t.Fatalf("fault plan injected nothing (out=%d in=%d); test is vacuous",
			stats.DuplicatedOut, stats.DuplicatedIn)
	}
	// Duplicated commands were answered from the dedup cache, never
	// re-executed; duplicated replies were shed, never delivered twice.
	if got := reg.Counter(MetricDedupReplays).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricDedupReplays, got)
	}
	if got := reg.Counter(metricMuxStale).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", metricMuxStale, got)
	}
}

// TestRetriedMutationAppliesOnce: a mutate command slow enough for the
// client to retransmit several times must execute exactly once — the
// retries are answered from the dedup cache (observable via
// daemon_dedup_replays_total), and the daemon's command counter shows a
// single execution.
func TestRetriedMutationAppliesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	d, addr := testDaemon(t, reg)

	// Hold the mutation long enough for ~10 retransmits.
	d.handleStarted = func(cmd Command) {
		if cmd.Cmd == "mutate" {
			time.Sleep(100 * time.Millisecond)
		}
	}

	c := newClient(dialDaemon(t, addr), "coalitiond", 10*time.Millisecond, reg)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := c.Call(ctx, Command{Cmd: "mutate", Op: authz.VerbReanchor})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("reanchor failed: %s", rep.Detail)
	}

	if got := reg.Counter(MetricMuxResends).Value(); got < 1 {
		t.Fatalf("resends = %d, want >= 1 (the retry scenario never happened)", got)
	}
	// Retries reached the daemon as duplicates and were replayed, not
	// re-executed: exactly one mutate ran.
	waitFor(t, time.Second, func() bool {
		return reg.Counter(MetricDedupReplays).Value() >= 1
	})
	if got := reg.Snapshot().CounterValue(`daemon_commands_total{cmd="mutate"}`); got != 1 {
		t.Fatalf(`daemon_commands_total{cmd="mutate"} = %d, want exactly 1`, got)
	}
}
