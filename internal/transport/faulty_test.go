package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// faultyPair wires two in-memory endpoints with a Faulty wrapper on A.
func faultyPair(t *testing.T, plan FaultPlan) (*Faulty, Endpoint, *Memory) {
	t.Helper()
	net := NewMemory()
	t.Cleanup(net.Close)
	a := NewFaulty(net.Endpoint("A"), plan)
	b := net.Endpoint("B")
	return a, b, net
}

func TestFaultyPassthrough(t *testing.T) {
	a, b, _ := faultyPair(t, FaultPlan{Seed: 1})
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
		net := NewMemory()
		defer net.Close()
		a := NewFaulty(net.Endpoint("A"), FaultPlan{Seed: seed, DropOut: 0.3})
		b := net.Endpoint("B")
		for i := 0; i < n; i++ {
			if err := a.Send("B", "k", nil); err != nil {
				t.Fatalf("dropped send errored: %v", err)
			}
		}
		count := 0
		for {
			if _, err := b.RecvTimeout(20 * time.Millisecond); err != nil {
				break
			}
			count++
		}
		if s := a.Stats(); s.DroppedOut != n-count {
			t.Errorf("stats.DroppedOut = %d, want %d", s.DroppedOut, n-count)
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
	a, _, net := faultyPair(t, FaultPlan{Seed: 3, DupIn: 1.0})
	bsend := net.Endpoint("B")
	if err := bsend.Send("A", "k", []byte("twin")); err != nil {
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
	if _, err := a.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
		t.Errorf("third copy: %v, want timeout", err)
	}
	if s := a.Stats(); s.DuplicatedIn != 1 {
		t.Errorf("stats.DuplicatedIn = %d, want 1", s.DuplicatedIn)
	}
}

func TestFaultyDelayIn(t *testing.T) {
	a, _, net := faultyPair(t, FaultPlan{Seed: 5, DelayIn: 30 * time.Millisecond})
	bsend := net.Endpoint("B")
	if err := bsend.Send("A", "k", nil); err != nil {
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
	a, b, net := faultyPair(t, FaultPlan{Seed: 9})
	bsend := net.Endpoint("B")

	a.Sever(Outbound)
	if err := a.Send("B", "k", []byte("lost")); err != nil {
		t.Fatalf("severed send must report success (blackhole): %v", err)
	}
	if _, err := b.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
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
	if err := bsend.Send("A", "k", []byte("discarded")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
		t.Errorf("severed inbound delivered: %v", err)
	}
	a.Heal(Both)
	if err := bsend.Send("A", "k", []byte("back")); err != nil {
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
	a, _, _ := faultyPair(t, FaultPlan{Seed: 11})
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
