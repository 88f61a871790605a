package daemon

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// quietFollower starts a replicating writer and a follower, has the
// writer sign a 1-signer read, waits until the follower has installed the
// writer's state, and stops both serve loops: the replica stays
// installed, and no heartbeat or replication frame runs beside what a
// test measures on it afterwards.
func quietFollower(t *testing.T) (*Follower, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _, stop := startFleet(ctx, t)
	body := signedBy(ctx, t, d, "carol")
	waitCaughtUp(ctx, t, d, f)
	stop()
	return f, body
}

// TestWireAuthorizeAllocBudget pins what a follower's authorize command
// allocates end to end on a warm replica: the command's wire bytes go in
// through the serve pipeline's step (decode, dedup, Follower.Handle,
// Authorize) and its encoded reply comes out. The frame read around it
// allocates nothing (transport's TestFrameAllocBudget); the access
// request is parsed where the command's Data string holds it.
func TestWireAuthorizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	f, body := quietFollower(t)
	p := newPipeline(pipelineConfig{Handler: f.Handle, DedupCap: 16, Tag: "follower"})
	ctx := context.Background()

	const warm, runs = 64, 200
	payloads := make([][]byte, warm+runs+1)
	for i := range payloads {
		payloads[i] = appendCommand(nil, Command{ID: fmt.Sprintf("%012x-%d", i, i), Cmd: "authorize", Data: body})
	}
	next := 0
	serve := func() {
		env := transport.Envelope{From: "bench-authz", Kind: "cmd", Payload: payloads[next]}
		next++
		reply, err := decodeReply(p.serveOne(ctx, &env))
		if err != nil || !reply.OK {
			t.Fatalf("authorize: %+v, %v", reply, err)
		}
	}
	for range warm { // certificate cache, dedup ring and pools in steady state
		serve()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("authorize through the serve step: %.0f allocs/op, %.0f B/op (request %d B)", allocs, bytes, len(body))
	if allocs != wireAuthorizeAllocs {
		t.Errorf("authorize allocates %.0f/op, want %d", allocs, wireAuthorizeAllocs)
	}
	if bytes > wireAuthorizeBytes {
		t.Errorf("authorize allocates %.0f B/op, ceiling %d", bytes, wireAuthorizeBytes)
	}
}

// The budget of TestWireAuthorizeAllocBudget, for a 1-signer read of a
// ≈1.5 KB request: the one copy of the request (the command's Data), the
// fields the access-request decoder copies out of it, and the decision
// with its audit entry (its spans one allocation), reply and dedup slot
// (an entry and its done channel).
const (
	wireAuthorizeAllocs = 62
	wireAuthorizeBytes  = 5800
)

// readRawFrame reads one whole transport frame, header included, off a
// raw connection.
func readRawFrame(conn net.Conn) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a test deadline
	frame := make([]byte, 4)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
	_, err := io.ReadFull(conn, frame[4:])
	return frame, err
}

// goldenCommand carries every Command field.
var goldenCommand = Command{ID: "golden-1", Cmd: "authorize", Group: "G_read", Object: "O",
	Data: `{"identities":null,"requests":[{"user":"carol","at":7,"op":"read","object":"O","payload":"aW5pdGlhbCBjb250ZW50","sig":"00ff"}]}`,
	Op:   "read", Signers: []string{"alice", "bob"}, Delegated: true, Domain: "D4"}

// The frames goldenCommand and its reply travel in, as the wire carried
// them before the client appended commands into its frame and the
// transport pooled inbound bodies: the same bytes, byte for byte.
const (
	goldenCommandFrame = "000000d3010b62656e63682d617574687a0e62656e63682d666f6c6c6f776572" +
		"03636d64b1010108676f6c64656e2d3109617574686f72697a6506475f726561" +
		"64014f7f7b226964656e746974696573223a6e756c6c2c227265717565737473" +
		"223a5b7b2275736572223a226361726f6c222c226174223a372c226f70223a22" +
		"72656164222c226f626a656374223a224f222c227061796c6f6164223a226157" +
		"357064476c686243426a623235305a573530222c22736967223a223030666622" +
		"7d5d7d04726561640205616c69636503626f6201024434"
	goldenReplyFrame = "00000075010e62656e63682d666f6c6c6f7765720b62656e63682d617574687a" +
		"057265706c79520108676f6c64656e2d310136617070726f7665642076696120" +
		"475f72656164205b66312d3030303030315d2061742065706f63682030207761" +
		"7465726d61726b20300f696e697469616c20636f6e74656e74"
)

// TestWireFramesGolden: the command frame a mux client sends and the
// reply frame a serve pipeline answers with, both read raw off a socket,
// are byte-identical to the golden frames.
func TestWireFramesGolden(t *testing.T) {
	// The command: a client calls a raw listener, which answers by hand.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	node := transport.DialTCP("bench-authz")
	defer node.Close()
	node.AddPeer("bench-follower", l.Addr().String())
	c := newClient(node, "bench-follower", 0, nil)
	defer c.Close()
	called := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), goldenCommand)
		called <- err
	}()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := readRawFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != goldenCommandFrame {
		t.Errorf("command frame\n got %s\nwant %s", got, goldenCommandFrame)
	}
	reply := Reply{ID: goldenCommand.ID, OK: true, Detail: "approved via G_read [f1-000001] at epoch 0 watermark 0", Data: "initial content"}
	if _, err := conn.Write(wireFrame("bench-follower", "bench-authz", "reply", encodeReply(reply))); err != nil {
		t.Fatal(err)
	}
	if err := <-called; err != nil {
		t.Fatal(err)
	}

	// The reply: a pipeline answers a raw connection's command frame.
	p := newPipeline(pipelineConfig{Handler: func(context.Context, Command) Reply {
		return Reply{OK: true, Detail: reply.Detail, Data: reply.Data}
	}})
	srv, err := transport.ListenTCP("bench-follower", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(context.Background(), srv) }()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(wireFrame("bench-authz", "bench-follower", "cmd", appendCommand(nil, goldenCommand))); err != nil {
		t.Fatal(err)
	}
	frame, err = readRawFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != goldenReplyFrame {
		t.Errorf("reply frame\n got %s\nwant %s", got, goldenReplyFrame)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

// BenchmarkWireAuthorize measures a decision over the wire the way the
// benchmark's wire_replicated workload serves it: a replicating writer, a
// follower and a mux Client over loopback TCP, with two calls in flight.
// Sub-benchmarks decide a 1-signer read and a 2-signer write, both
// pre-signed by the writer. Beside ns/op, B/op and allocs/op (every
// goroutine of the process: client, follower and writer) it reports the
// process's CPU time per decision (getrusage: user + system), so an A/B
// of the wire path can tell work saved from waiting shifted.
func BenchmarkWireAuthorize(b *testing.B) {
	for _, tc := range []struct {
		name    string
		signers []string
	}{
		{"read", []string{"carol"}},
		{"write", []string{"alice", "bob"}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchWireAuthorize(b, tc.signers) })
	}
}

func benchWireAuthorize(b *testing.B, signers []string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	topts := transport.Options{DialTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second, Attempts: 3, RetryBase: time.Millisecond, Seed: 1}
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
	f, err := NewFollower(FollowerConfig{Name: "bench-follower", WriterAddr: wnode.Addr(), Metrics: obs.NewRegistry(), Transport: topts})
	if err != nil {
		b.Fatal(err)
	}
	fnode, err := f.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer fnode.Close()
	var serving sync.WaitGroup
	defer serving.Wait()
	defer cancel()
	for _, serve := range []func() error{
		func() error { return d.Serve(ctx, wnode) },
		func() error { return f.Serve(ctx, fnode) },
	} {
		serving.Add(1)
		go func() { defer serving.Done(); serve() }() //nolint:errcheck // ends with the benchmark
	}
	c, err := Dial(ClientConfig{ServerAddr: fnode.Addr(), ServerName: "bench-follower", Name: "bench-authz",
		Transport: topts, Resend: time.Second, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	op := "read"
	if len(signers) > 1 {
		op = "write"
	}
	rep := d.Handle(ctx, Command{Cmd: "sign", Op: op, Signers: signers})
	if !rep.OK {
		b.Fatalf("sign: %+v", rep)
	}
	cmd := Command{Cmd: "authorize", Data: rep.Data}
	authorize := func() error {
		rep, err := c.Call(ctx, cmd)
		if err == nil && !rep.OK {
			err = fmt.Errorf("authorize: %s", rep.Detail)
		}
		return err
	}
	// Wait for the replica, then warm the certificate cache and the
	// connection off the clock.
	deadline := time.Now().Add(30 * time.Second)
	for f.Applier().Replica() == nil || authorize() != nil {
		if time.Now().After(deadline) {
			b.Fatalf("follower never approved: %+v", f.Applier().Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	const inflight = 2
	b.ReportAllocs()
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) //nolint:errcheck // RUSAGE_SELF cannot fail
	b.ResetTimer()
	errs := make(chan error, inflight)
	for w := range inflight {
		share := b.N / inflight
		if w < b.N%inflight {
			share++
		}
		go func() {
			for range share {
				if err := authorize(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range inflight {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1) //nolint:errcheck // RUSAGE_SELF cannot fail
	cpu := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
}
