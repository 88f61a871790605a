package daemon

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// BenchmarkFollowerFleet measures aggregate authorize throughput against
// a replicated read fleet of 1, 2 and 4 followers. Each follower sits
// behind a modeled WAN link (uniform random inbound delay up to
// benchLinkDelay, injected with transport.Faulty) and serves one
// closed-loop client — one request in flight per follower, like a relying
// party evaluating requests as they arrive. Because each request spends
// most of its wall time on the link, followers overlap that waiting and
// aggregate RPS grows near-linearly with fleet size until the CPU
// saturates — the replication payoff this deployment shape exists for
// (see docs/BENCHMARKS.md for how to read it on small hosts).
const benchLinkDelay = 4 * time.Millisecond

func BenchmarkFollowerFleet(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("followers-%d", n), func(b *testing.B) {
			benchFleet(b, n)
		})
	}
}

func benchFleet(b *testing.B, followers int) {
	topts := transport.Options{
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		Attempts:     3,
		RetryBase:    time.Millisecond,
		Seed:         1,
	}
	d, err := New(Config{
		Domains:       []string{"D1", "D2", "D3"},
		Users:         []string{"alice", "bob", "carol"},
		Metrics:       obs.NewRegistry(),
		Transport:     topts,
		DataDir:       b.TempDir(),
		Replicate:     true,
		ReplHeartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	wnode, err := d.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer wnode.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writerDone := make(chan error, 1)
	go func() { writerDone <- d.Serve(ctx, wnode) }()

	// The fleet: each follower behind its own modeled WAN link.
	type fleetMember struct {
		f      *Follower
		node   *transport.TCPNode
		done   chan error
		client *transport.TCPNode
	}
	fleet := make([]*fleetMember, followers)
	for i := range fleet {
		f, err := NewFollower(FollowerConfig{
			Name:        fmt.Sprintf("bf%d", i),
			WriterAddr:  wnode.Addr(),
			Metrics:     obs.NewRegistry(),
			Transport:   topts,
			ResyncAfter: time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		node, err := f.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		link := transport.NewFaulty(node, transport.FaultPlan{
			Seed:    int64(100 + i),
			DelayIn: benchLinkDelay,
		})
		done := make(chan error, 1)
		go func() { done <- f.Serve(ctx, link) }()
		client, err := transport.ListenTCP(fmt.Sprintf("bench-client-%d", i), "127.0.0.1:0", topts)
		if err != nil {
			b.Fatal(err)
		}
		client.AddPeer(f.name, node.Addr())
		fleet[i] = &fleetMember{f: f, node: node, done: done, client: client}
	}
	defer func() {
		for _, m := range fleet {
			m.client.Close()
			m.node.Close()
		}
	}()

	// Wait for every follower to replay to the writer's head.
	head := d.wal.Seq()
	for _, m := range fleet {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := m.f.Applier().Status()
			if st.Ready && st.LastSeq >= head {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("follower %s never caught up: %+v", m.f.name, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// One writer-signed read request, reused for every evaluation (the
	// daemon runs without a freshness window, so a request stays valid).
	rep := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	if !rep.OK {
		b.Fatalf("sign failed: %+v", rep)
	}
	signed := rep.Data

	ask := func(m *fleetMember, id string) error {
		body := EncodeCommand(Command{ID: id, Cmd: "authorize", Data: signed})
		if err := m.client.Send(m.f.name, "cmd", body); err != nil {
			return err
		}
		for {
			env, err := m.client.RecvTimeout(10 * time.Second)
			if err != nil {
				return err
			}
			if r, err := DecodeReply(env.Payload); err == nil && r.ID == id {
				if !r.OK {
					return fmt.Errorf("authorize denied: %s", r.Detail)
				}
				return nil
			}
		}
	}
	// Warm each client's connection (TCP dial, peer learning) off-clock.
	for _, m := range fleet {
		if err := ask(m, "warmup"); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	start := time.Now()
	errs := make(chan error, followers)
	for ci, m := range fleet {
		share := b.N / followers
		if ci < b.N%followers {
			share++
		}
		go func(m *fleetMember, ci, share int) {
			for r := 0; r < share; r++ {
				if err := ask(m, fmt.Sprintf("b%d-%d", ci, r)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(m, ci, share)
	}
	for range fleet {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
}
