package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// faultyPair wires two loopback TCP nodes that know each other's
// address, with a Faulty wrapper on A; both close when the test ends.
func faultyPair(t *testing.T, plan FaultPlan) (*Faulty, *TCPNode) {
	t.Helper()
	inner, err := ListenTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := NewFaulty(inner, plan)
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("B", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	inner.AddPeer("B", b.Addr())
	b.AddPeer("A", inner.Addr())
	return a, b
}

func TestFaultyPassthrough(t *testing.T) {
	a, b := faultyPair(t, FaultPlan{Seed: 1})
	if err := a.Send("B", "k", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	env, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "clean" {
		t.Errorf("payload = %q", env.Payload)
	}
	if a.Name() != "A" {
		t.Errorf("name = %q", a.Name())
	}
}

// TestFaultyDropOutDeterministic: the same seed yields the same loss
// pattern, and dropped sends still report success.
func TestFaultyDropOutDeterministic(t *testing.T) {
	const n = 200
	arrived := func(seed int64) int {
		a, b := faultyPair(t, FaultPlan{Seed: seed, DropOut: 0.3})
		for i := 0; i < n; i++ {
			if err := a.Send("B", "k", nil); err != nil {
				t.Fatalf("dropped send errored: %v", err)
			}
		}
		// Every send the plan kept arrives, and nothing more.
		count := n - a.Stats().DroppedOut
		for i := 0; i < count; i++ {
			if _, err := b.RecvTimeout(2 * time.Second); err != nil {
				t.Fatalf("kept send %d of %d: %v", i, count, err)
			}
		}
		if _, err := b.RecvTimeout(20 * time.Millisecond); !errors.Is(err, errRecvTimeout) {
			t.Errorf("a dropped send arrived: %v", err)
		}
		return count
	}
	first := arrived(7)
	if first == 0 || first == n {
		t.Fatalf("arrived = %d of %d, faults not exercised", first, n)
	}
	if again := arrived(7); again != first {
		t.Errorf("same seed delivered %d then %d", first, again)
	}
	if other := arrived(8); other == first {
		t.Logf("different seeds delivered the same count %d (possible, not asserted)", other)
	}
}

func TestFaultyDuplicateIn(t *testing.T) {
	a, b := faultyPair(t, FaultPlan{Seed: 3, DupIn: 1.0})
	if err := b.Send("A", "k", []byte("twin")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		env, err := a.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if string(env.Payload) != "twin" {
			t.Errorf("copy %d payload = %q", i, env.Payload)
		}
	}
	if _, err := a.RecvTimeout(30 * time.Millisecond); !errors.Is(err, errRecvTimeout) {
		t.Errorf("third copy: %v, want timeout", err)
	}
	if s := a.Stats(); s.DuplicatedIn != 1 {
		t.Errorf("stats.DuplicatedIn = %d, want 1", s.DuplicatedIn)
	}
}

func TestFaultyDelayIn(t *testing.T) {
	a, b := faultyPair(t, FaultPlan{Seed: 5, DelayIn: 30 * time.Millisecond})
	if err := b.Send("A", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.DelayedIn != 1 {
		t.Errorf("stats.DelayedIn = %d, want 1", s.DelayedIn)
	}
}

// TestFaultySeverAndHeal: a severed outbound direction blackholes sends
// (success, nothing arrives); a severed inbound direction discards
// arrivals; healing restores both.
func TestFaultySeverAndHeal(t *testing.T) {
	a, b := faultyPair(t, FaultPlan{Seed: 9})

	a.Sever(Outbound)
	if err := a.Send("B", "k", []byte("lost")); err != nil {
		t.Fatalf("severed send must report success (blackhole): %v", err)
	}
	if _, err := b.RecvTimeout(30 * time.Millisecond); !errors.Is(err, errRecvTimeout) {
		t.Errorf("severed frame arrived: %v", err)
	}
	a.Heal(Outbound)
	if err := a.Send("B", "k", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if env, err := b.RecvTimeout(time.Second); err != nil || string(env.Payload) != "healed" {
		t.Fatalf("after heal: %v %q", err, env.Payload)
	}

	a.Sever(Inbound)
	if err := b.Send("A", "k", []byte("discarded")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvTimeout(30 * time.Millisecond); !errors.Is(err, errRecvTimeout) {
		t.Errorf("severed inbound delivered: %v", err)
	}
	a.Heal(Both)
	if err := b.Send("A", "k", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if env, err := a.RecvTimeout(time.Second); err != nil || string(env.Payload) != "back" {
		t.Fatalf("after heal inbound: %v %q", err, env.Payload)
	}
	s := a.Stats()
	if s.SeveredOut != 1 || s.SeveredIn != 1 {
		t.Errorf("severed stats = %+v, want 1 out / 1 in", s)
	}
}

func TestFaultyRecvContext(t *testing.T) {
	a, _ := faultyPair(t, FaultPlan{Seed: 11})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.RecvContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("recv on empty inbox: %v", err)
	}
}

// TestFaultyOverTCP: the wrapper composes with the TCP transport, and
// its Reply reaches the wrapped TCPNode, which answers on the connection
// the envelope arrived on — the daemon's serve loop depends on it.
func TestFaultyOverTCP(t *testing.T) {
	inner, err := ListenTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFaulty(inner, FaultPlan{Seed: 13})
	defer srv.Close()
	cli := DialTCP("cli")
	defer cli.Close()
	cli.AddPeer("srv", inner.Addr())

	if err := cli.Send("srv", "cmd", []byte("ask")); err != nil {
		t.Fatal(err)
	}
	req, err := srv.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reply(req, "reply", []byte("routed")); err != nil {
		t.Fatal(err)
	}
	env, err := cli.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "routed" || env.From != "srv" {
		t.Errorf("reply = %+v", env)
	}
}
