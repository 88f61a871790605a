package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/replication"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// walFlushPolicy is printed with every wire_replicated result: the
// writer fsyncs each acknowledged append (daemon.Config.WALBatchWindow 0).
const walFlushPolicy = "wal: fsync per acknowledged append (WALBatchWindow=0)"

// daemonAuditRetention caps the daemons' in-memory audit logs, so the
// live heap does not grow with the number of decisions served.
const daemonAuditRetention = 4096

// wirePool sizes the pre-signed request pool of wire_replicated.
var wirePool = []struct {
	kind  string
	count int
}{{"read", 16}, {"write", 8}, {"delegated", 5}, {"deny", 3}}

// signed is one pre-signed request: the `sign` verb's output, replayed
// against the follower's `authorize`.
type signed struct {
	kind string
	data string
	want bool
}

// wire is the wire_replicated stack: a durable, replicating writer
// daemon, one follower over localhost TCP, one mux connection to the
// follower for authorize and one to the writer for mutate/sign.
type wire struct {
	dir string

	writer             *daemon.Daemon
	follower           *daemon.Follower
	wnode, fnode       *transport.TCPNode
	authzc, adminc     *daemon.Client
	wreg, freg         *obs.Registry
	authzReg, adminReg *obs.Registry
	cancel             context.CancelFunc
	serving            sync.WaitGroup
	serveErrs          chan error
	pool               []signed
	// The admin worker alone touches these during a round; set-up and
	// the probes read them before and after.
	victims   map[int]string // victim group index → its signed read
	mutations int            // acknowledged since set-up ended
	lagMax    uint64         // largest follower lag seen
	// startSeq and base are the follower's position and the byte and
	// fsync counts when set-up ended; the run's per-mutation figures are
	// deltas from them.
	startSeq uint64
	base     wireCounts
}

// wireCounts are running totals read from the stack's registries and
// the writer's log file.
type wireCounts struct {
	fsyncs, walBytes, clientBytes, replBytes float64
}

func (s *wire) counts() wireCounts {
	c := wireCounts{fsyncs: histogramCount(s.wreg, wal.MetricFsyncSeconds)}
	if st, err := os.Stat(filepath.Join(s.dir, wal.LogName)); err == nil {
		c.walBytes = float64(st.Size())
	}
	sent := s.authzReg.Counter(transport.MetricBytes, "dir", "out").Value()
	c.clientBytes = float64(sent + s.authzReg.Counter(transport.MetricBytes, "dir", "in").Value())
	// What reached the follower and was not a command is replication.
	c.replBytes = float64(s.freg.Counter(transport.MetricBytes, "dir", "in").Value() - sent)
	return c
}

var wireTransport = transport.Options{
	DialTimeout:  2 * time.Second,
	WriteTimeout: 2 * time.Second,
	Attempts:     3,
	RetryBase:    time.Millisecond,
	Seed:         1,
}

func newWire(ctx context.Context, tmpRoot string) (*wire, error) {
	dir, err := os.MkdirTemp(tmpRoot, "wire-")
	if err != nil {
		return nil, err
	}
	s := &wire{dir: dir, wreg: obs.NewRegistry(), freg: obs.NewRegistry(),
		authzReg: obs.NewRegistry(), adminReg: obs.NewRegistry(),
		victims: map[int]string{}, serveErrs: make(chan error, 2)}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	s.writer, err = daemon.New(daemon.Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		Metrics:        s.wreg,
		Transport:      wireTransport,
		DataDir:        dir,
		WALBatchWindow: 0,
		AuditRetention: daemonAuditRetention,
		Replicate:      true,
		ReplHeartbeat:  100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if s.wnode, err = s.writer.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.serve(func() error { return s.writer.Serve(runCtx, s.wnode) })

	s.follower, err = daemon.NewFollower(daemon.FollowerConfig{
		Name:           "bench-follower",
		WriterAddr:     s.wnode.Addr(),
		Metrics:        s.freg,
		Transport:      wireTransport,
		AuditRetention: daemonAuditRetention,
	})
	if err != nil {
		return nil, err
	}
	if s.fnode, err = s.follower.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.serve(func() error { return s.follower.Serve(runCtx, s.fnode) })

	s.adminc, err = daemon.Dial(daemon.ClientConfig{ServerAddr: s.wnode.Addr(), Name: "bench-admin",
		Transport: wireTransport, Resend: time.Second, Metrics: s.adminReg})
	if err != nil {
		return nil, err
	}
	s.authzc, err = daemon.Dial(daemon.ClientConfig{ServerAddr: s.fnode.Addr(), ServerName: "bench-follower",
		Name: "bench-authz", Transport: wireTransport, Resend: time.Second, Metrics: s.authzReg})
	if err != nil {
		return nil, err
	}
	if err := s.waitReady(ctx); err != nil {
		return nil, err
	}
	if err := s.presign(ctx); err != nil {
		return nil, err
	}
	s.startSeq = s.follower.Applier().Status().LastSeq
	s.base = s.counts()
	ok = true
	return s, nil
}

// serve runs one daemon's Serve loop until stop cancels it.
func (s *wire) serve(fn func() error) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := fn(); err != nil && err != context.Canceled {
			s.serveErrs <- err
		}
	}()
}

// waitReady blocks until the follower has installed its first snapshot.
func (s *wire) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for !s.follower.Applier().Status().Ready {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("follower never installed a snapshot: %+v", s.follower.Applier().Status())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// admin sends one command to the writer over the admin connection.
func (s *wire) admin(ctx context.Context, cmd daemon.Command) (daemon.Reply, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rep, err := s.adminc.Call(ctx, cmd)
	if err != nil {
		return rep, err
	}
	if !rep.OK {
		return rep, fmt.Errorf("writer refused %s %s: %s", cmd.Cmd, cmd.Op, rep.Detail)
	}
	return rep, nil
}

// presign builds the delegation chain alice>bob, has the writer sign the
// pool, then applies one more mutation: its shipped record carries the
// writer's clock past every signing instant, so the follower believes
// the freshly minted identity certificates.
func (s *wire) presign(ctx context.Context) error {
	for _, spec := range []string{"alice:1:read", "alice>bob:0:read"} {
		if _, err := s.admin(ctx, daemon.Command{Cmd: "mutate", Op: authz.VerbDelegation, Group: "G_read", Data: spec}); err != nil {
			return err
		}
	}
	users := []string{"alice", "bob", "carol"}
	for _, p := range wirePool {
		for i := 0; i < p.count; i++ {
			cmd := daemon.Command{Cmd: "sign", Op: "read", Signers: []string{users[i%3]}}
			want := true
			switch p.kind {
			case "write":
				cmd.Op, cmd.Group, cmd.Data = "write", "G_write", fmt.Sprintf("v%d", i)
				cmd.Signers = []string{users[i%3], users[(i+1)%3]}
			case "deny": // sub-quorum joint write
				cmd.Op, cmd.Group, cmd.Data = "write", "G_write", "x"
				want = false
			case "delegated":
				cmd.Delegated, cmd.Signers = true, []string{"bob"}
			}
			rep, err := s.admin(ctx, cmd)
			if err != nil {
				return err
			}
			s.pool = append(s.pool, signed{kind: p.kind, data: rep.Data, want: want})
		}
	}
	a, err := s.mutate(ctx, -1, nil, 0)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !a.covered() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never caught up with the set-up mutations: %+v", s.follower.Applier().Status())
		}
		time.Sleep(visiblePoll)
	}
	s.mutations = 0
	return nil
}

func (s *wire) kinds() []string {
	k := make([]string, len(s.pool))
	for i := range s.pool {
		k[i] = s.pool[i].kind
	}
	return k
}

func (s *wire) decide(ctx context.Context, k int, tr *tracer, req int32) error {
	p := &s.pool[k]
	id := tr.begin("daemon.client_call_authorize", 0, req)
	err := s.authorize(ctx, p.data, p.want)
	tr.end(id)
	return err
}

// authorize evaluates one signed request on the follower over the wire.
func (s *wire) authorize(ctx context.Context, data string, want bool) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rep, err := s.authzc.Call(ctx, daemon.Command{Cmd: "authorize", Data: data})
	if err != nil {
		return err
	}
	return checkReply(rep, want)
}

// checkReply accepts an approval or a denial by the authorization
// protocol, whichever is expected; any other refusal (not ready, bad
// request, wrong role) is a failure.
func checkReply(rep daemon.Reply, want bool) error {
	if rep.OK != want {
		return fmt.Errorf("wrong outcome: ok=%v, expected %v (%s)", rep.OK, want, rep.Detail)
	}
	if !rep.OK && !strings.Contains(rep.Detail, "denied") {
		return fmt.Errorf("refused, not denied: %s", rep.Detail)
	}
	return nil
}

// mutate cycles three verbs per victim group j: link G_v<j> ⇒ G_read
// (then sign a read through it), graph-link of an unrelated group (its
// record carries the writer's clock past the signing instant; gate: the
// read is approved on the follower), revoke G_v<j> (gate: the read is
// now denied). The pool's own outcomes never flip. A CRL publish is not
// in the cycle: with every entry already delivered it publishes nothing.
func (s *wire) mutate(ctx context.Context, n int, tr *tracer, parent int32) (ack, error) {
	before := s.status()
	a := ack{covered: func() bool {
		st := s.status()
		return st.Epoch > before.Epoch || st.Watermark > before.Watermark
	}}
	req := int32(-(n + 1))
	j := n / 3
	group := fmt.Sprintf("G_v%06d", j)
	cmd := daemon.Command{Cmd: "mutate"}
	switch {
	case n < 0: // set-up: any mutation that ships a record
		cmd.Op, cmd.Group, cmd.Data = authz.VerbGroupLink, "G_setup", "G_read"
	case n%3 == 0:
		var err error
		tr.call("authority.issue_threshold", parent, req, func() {
			err = s.writer.Alliance().GrantThreshold(group, 1, "carol")
		})
		if err != nil {
			return a, err
		}
		cmd.Op, cmd.Group, cmd.Data = authz.VerbGroupLink, group, "G_read"
	case n%3 == 1:
		cmd.Op, cmd.Group, cmd.Data = authz.VerbGroupGraphLink, fmt.Sprintf("G_g%06d", j), "G_read:1"
		if data, ok := s.victims[j]; ok {
			a.gate = func(ctx context.Context) error { return s.authorize(ctx, data, true) }
		}
	default:
		cmd.Op, cmd.Group = authz.VerbRevocation, group
		if data, ok := s.victims[j]; ok {
			a.gate = func(ctx context.Context) error { return s.authorize(ctx, data, false) }
		}
	}
	a.verb = cmd.Op
	var err error
	tr.call("daemon.client_call_mutate", parent, req, func() { _, err = s.admin(ctx, cmd) })
	a.acked = time.Now()
	if err != nil {
		return a, err
	}
	s.mutations++
	if cmd.Op == authz.VerbGroupLink && n >= 0 {
		// The victim read is signed after the acknowledgement is stamped:
		// it is the gates' input, not part of the mutation.
		var rep daemon.Reply
		tr.call("daemon.client_call_sign", parent, req, func() {
			rep, err = s.admin(ctx, daemon.Command{Cmd: "sign", Op: "read", Group: group, Signers: []string{"carol"}})
		})
		if err != nil {
			return a, err
		}
		s.victims[j] = rep.Data
	}
	return a, nil
}

// status reads the follower's replication status and keeps the largest
// lag seen. Only the admin worker calls it.
func (s *wire) status() replication.Status {
	st := s.follower.Applier().Status()
	if st.Lag > s.lagMax {
		s.lagMax = st.Lag
	}
	return st
}

// stop shuts the daemons and connections down and waits for them.
func (s *wire) stop() {
	if s.cancel != nil {
		s.cancel()
	}
	for _, c := range []*daemon.Client{s.authzc, s.adminc} {
		if c != nil {
			c.Close() //nolint:errcheck // shutdown of a client that is no longer used
		}
	}
	for _, n := range []*transport.TCPNode{s.fnode, s.wnode} {
		if n != nil {
			n.Close() //nolint:errcheck // shutdown; Serve reports real failures
		}
	}
	s.serving.Wait()
	if s.writer != nil {
		s.writer.Close() //nolint:errcheck // the WAL is re-opened and checked by finish
	}
}

// finish is the end-of-run gate: the follower's published version equals
// the writer's, and re-opening the run's data directory and replaying it
// reproduces the same (Epoch, Watermark).
func (s *wire) finish(ctx context.Context) error {
	last := s.follower.Applier().Status()
	s.stop()
	defer os.RemoveAll(s.dir)
	select {
	case err := <-s.serveErrs:
		return fmt.Errorf("serve loop failed: %w", err)
	default:
	}
	if last.Lag != 0 {
		return fmt.Errorf("follower ended %d records behind the writer", last.Lag)
	}
	rep, l, err := replayDir(s.dir)
	if err != nil {
		return err
	}
	l.Close() //nolint:errcheck // opened only to be replayed
	if rep.Epoch != last.Epoch || rep.Watermark != last.Watermark {
		return fmt.Errorf("wal replay lands on (epoch %d, watermark %d), follower served (epoch %d, watermark %d)",
			rep.Epoch, rep.Watermark, last.Epoch, last.Watermark)
	}
	if want := uint64(s.mutations); last.LastSeq-s.startSeq < want {
		return fmt.Errorf("follower applied %d records for %d acknowledged mutations", last.LastSeq-s.startSeq, want)
	}
	return nil
}

// replayDir opens the write-ahead log in dir and replays it exactly, as
// a restarted reader of the directory would.
func replayDir(dir string) (authz.ReplayReport, *wal.Log, error) {
	l, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return authz.ReplayReport{}, nil, fmt.Errorf("re-open wal: %w", err)
	}
	clk := clock.New(0)
	_, rep, err := authz.NewReplica("bench-check", clk, acl.NewStore(clk), nil, recs)
	if err != nil {
		l.Close() //nolint:errcheck // the replay error is the one to report
		return rep, nil, fmt.Errorf("replay wal: %w", err)
	}
	return rep, l, nil
}
