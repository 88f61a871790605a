package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/audit"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

func newDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDaemonWriteReadFlow(t *testing.T) {
	d := newDaemon(t)
	r := d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"})
	if !r.OK {
		t.Fatalf("write: %+v", r)
	}
	r = d.Handle(context.Background(), Command{Cmd: "read", Signers: []string{"carol"}})
	if !r.OK || r.Data != "v2" {
		t.Fatalf("read: %+v", r)
	}
	// Threshold enforcement surfaces as a denial.
	r = d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice"}, Data: "v3"})
	if r.OK {
		t.Fatal("single-signer write approved")
	}
	if !strings.Contains(r.Detail, "threshold") {
		t.Errorf("denial detail = %q", r.Detail)
	}
}

func TestDaemonRevokeAndAudit(t *testing.T) {
	d := newDaemon(t)
	if r := d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); !r.OK {
		t.Fatalf("write: %+v", r)
	}
	// The legacy command is the group-revocation verb: its data field was
	// never read, so it must not select mutate's per-delegate revocation.
	if r := d.Handle(context.Background(), Command{Cmd: "revoke", Data: "alice"}); !r.OK || r.Detail != "revoked G_write" {
		t.Fatalf("revoke: %+v", r)
	}
	if r := d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v3"}); r.OK {
		t.Fatal("post-revocation write approved")
	}
	r := d.Handle(context.Background(), Command{Cmd: "audit"})
	if !r.OK || !strings.Contains(r.Data, "APPROVED") || !strings.Contains(r.Data, "DENIED") {
		t.Fatalf("audit: %+v", r)
	}
}

func TestDaemonDynamics(t *testing.T) {
	d := newDaemon(t)
	r := d.Handle(context.Background(), Command{Cmd: "join", Domain: "D4"})
	if !r.OK || !strings.Contains(r.Detail, "epoch 2") {
		t.Fatalf("join: %+v", r)
	}
	r = d.Handle(context.Background(), Command{Cmd: "leave", Domain: "D4"})
	if !r.OK || !strings.Contains(r.Detail, "epoch 3") {
		t.Fatalf("leave: %+v", r)
	}
	if r := d.Handle(context.Background(), Command{Cmd: "leave", Domain: "Ghost"}); r.OK {
		t.Fatal("leave of unknown domain succeeded")
	}
}

// TestDaemonMutateVerbs drives every mutation verb through the mutate
// command: link enables an inherited group, revoke-identity and revoke
// deny future writes, crl and reanchor succeed as no-op-shaped mutations.
func TestDaemonMutateVerbs(t *testing.T) {
	d := newDaemon(t)
	ctx := context.Background()
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "link", Group: "G_read", Data: "G_write"}); !r.OK {
		t.Fatalf("mutate link: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "crl"}); !r.OK {
		t.Fatalf("mutate crl: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "reanchor"}); !r.OK {
		t.Fatalf("mutate reanchor: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); !r.OK {
		t.Fatalf("write before revocations: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "revoke-identity", Data: "alice"}); !r.OK {
		t.Fatalf("mutate revoke-identity: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v3"}); r.OK {
		t.Fatal("write approved after identity revocation")
	}
	if r := d.Handle(ctx, Command{Cmd: "write", Signers: []string{"bob", "carol"}, Data: "v3"}); !r.OK {
		t.Fatalf("write by unrevoked signers: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "revoke", Group: "G_write"}); !r.OK {
		t.Fatalf("mutate revoke: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "write", Signers: []string{"bob", "carol"}, Data: "v4"}); r.OK {
		t.Fatal("write approved after group revocation")
	}
	r := d.Handle(ctx, Command{Cmd: "mutate", Op: "fly"})
	if r.OK || !strings.Contains(r.Detail, "unknown mutation verb") {
		t.Fatalf("unknown verb: %+v", r)
	}
	for _, verb := range []string{"link", "revoke", "revoke-identity", "crl", "reanchor", "delegate", "graph-link"} {
		if !strings.Contains(r.Detail, verb) {
			t.Errorf("verb listing missing %q: %s", verb, r.Detail)
		}
	}
}

// TestDaemonDelegationVerbs drives the delegation subsystem end to end
// through daemon commands: a root grant enables a delegated read, a chain
// link attenuates it, revoking the mid-chain delegate severs the chain,
// and a graph link routes membership across groups.
func TestDaemonDelegationVerbs(t *testing.T) {
	d := newDaemon(t)
	ctx := context.Background()
	// Root grant: alice may read (and delegate one more hop).
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"}); !r.OK {
		t.Fatalf("mutate delegate root: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "read", Delegated: true, Signers: []string{"alice"}}); !r.OK {
		t.Fatalf("delegated read by alice: %+v", r)
	}
	// Chain link: alice passes read on to bob (no further hops).
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"}); !r.OK {
		t.Fatalf("mutate delegate chain: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "read", Delegated: true, Signers: []string{"bob"}}); !r.OK {
		t.Fatalf("delegated read by bob: %+v", r)
	}
	// bob's depth is exhausted: a further hop must be refused.
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "bob>carol:0:read"}); r.OK {
		t.Fatalf("delegation beyond depth bound approved: %+v", r)
	}
	// Revoking alice mid-chain severs bob's chain too.
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "revoke", Group: "G_read", Data: "alice"}); !r.OK {
		t.Fatalf("mutate revoke delegation: %+v", r)
	}
	if r := d.Handle(ctx, Command{Cmd: "read", Delegated: true, Signers: []string{"bob"}}); r.OK {
		t.Fatal("delegated read approved after mid-chain revocation")
	}
	// Graph link: members of G_write reach G_read's privileges.
	if r := d.Handle(ctx, Command{Cmd: "mutate", Op: "graph-link", Group: "G_write", Data: "G_read:1"}); !r.OK {
		t.Fatalf("mutate graph-link: %+v", r)
	}
}

func TestDaemonUnknownCommand(t *testing.T) {
	d := newDaemon(t)
	if r := d.Handle(context.Background(), Command{Cmd: "fly"}); r.OK || !strings.Contains(r.Detail, "unknown") {
		t.Fatalf("unknown command: %+v", r)
	}
}

// TestFollowerRejectsWriterCommands: every writer-only command — the
// mutate verb family included — is refused with the read_only class, not
// mistaken for an unknown command.
func TestFollowerRejectsWriterCommands(t *testing.T) {
	reg := obs.NewRegistry()
	f, err := NewFollower(FollowerConfig{WriterAddr: "127.0.0.1:1", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"write", "read", "revoke", "mutate", "join", "leave", "sign"} {
		r := f.Handle(context.Background(), Command{Cmd: name, Op: "link"})
		if r.OK || !strings.Contains(r.Detail, "read-only follower") {
			t.Errorf("%s on a follower: %+v", name, r)
		}
		key := fmt.Sprintf(`daemon_command_errors_total{cmd=%q,kind="read_only"}`, name)
		if got := reg.Snapshot().CounterValue(key); got != 1 {
			t.Errorf("%s = %d, want 1", key, got)
		}
	}
}

func TestDaemonValidation(t *testing.T) {
	if _, err := New(Config{Domains: []string{"only"}}); err == nil {
		t.Fatal("single-domain daemon accepted")
	}
}

// TestDaemonOverTCP drives the full client path: a policyctl-shaped client
// with no listener sends a command over TCP and reads the reply on the
// same connection.
func TestDaemonOverTCP(t *testing.T) {
	d := newDaemon(t)
	node, err := transport.ListenTCP("coalitiond", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = d.Serve(context.Background(), node)
	}()

	client := transport.DialTCP("policyctl")
	defer client.Close()
	client.AddPeer("coalitiond", node.Addr())

	body := EncodeCommand(Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "over tcp"})
	if err := client.Send("coalitiond", "cmd", body); err != nil {
		t.Fatal(err)
	}
	env, err := client.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := DecodeReply(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK {
		t.Fatalf("reply: %+v", reply)
	}
	node.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not exit on Close")
	}
}

// TestDaemonStatsAndTaxonomy drives a metered daemon through an approved
// write and a denied write, then checks the stats command's snapshot:
// per-command counters, the error taxonomy, and the authz per-step
// latency histograms all report.
func TestDaemonStatsAndTaxonomy(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); !r.OK {
		t.Fatalf("write: %+v", r)
	}
	if r := d.Handle(context.Background(), Command{Cmd: "write", Signers: []string{"alice"}, Data: "v3"}); r.OK {
		t.Fatal("single-signer write approved")
	}
	if r := d.Handle(context.Background(), Command{Cmd: "bogus"}); r.OK {
		t.Fatal("bogus command accepted")
	}

	r := d.Handle(context.Background(), Command{Cmd: "stats"})
	if !r.OK {
		t.Fatalf("stats: %+v", r)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(r.Data), &snap); err != nil {
		t.Fatalf("stats payload not a snapshot: %v", err)
	}
	if got := snap.CounterValue(`daemon_commands_total{cmd="write"}`); got != 2 {
		t.Errorf("write commands = %d, want 2", got)
	}
	if got := snap.CounterValue(`daemon_command_errors_total{cmd="write",kind="denied"}`); got != 1 {
		t.Errorf("denied writes = %d, want 1; counters: %+v", got, snap.Counters)
	}
	if got := snap.CounterValue(`daemon_command_errors_total{cmd="bogus",kind="unknown_command"}`); got != 1 {
		t.Errorf("unknown commands = %d, want 1", got)
	}
	if got := snap.CounterValue("authz_requests_total"); got != 2 {
		t.Errorf("authz requests = %d, want 2", got)
	}
	if h, ok := snap.HistogramValueOf(`authz_step_seconds{step="step1_certs"}`); !ok || h.Count != 2 {
		t.Errorf("step1 histogram = %+v (found %v), want count 2", h, ok)
	}
}

// TestDaemonStatsWithoutMetrics: stats on an unmetered daemon fails
// cleanly.
func TestDaemonStatsWithoutMetrics(t *testing.T) {
	d := newDaemon(t)
	if r := d.Handle(context.Background(), Command{Cmd: "stats"}); r.OK {
		t.Fatal("stats succeeded without a registry")
	}
}

// fakeNode is an in-memory CommandNode: a closable stream of envelopes
// in, a record of replies out. block, when set, may hold a reply until
// the test lets it go.
type fakeNode struct {
	envs    chan transport.Envelope
	recvErr error // returned once the stream drains (nil → ErrClosed)
	block   func(env transport.Envelope)

	mu      sync.Mutex
	replies map[string][]string // sender -> reply payloads
}

func newFakeNode(recvErr error) *fakeNode {
	return &fakeNode{
		envs:    make(chan transport.Envelope, 64),
		recvErr: recvErr,
		replies: make(map[string][]string),
	}
}

func (f *fakeNode) RecvContext(ctx context.Context) (transport.Envelope, error) {
	select {
	case env, ok := <-f.envs:
		if !ok {
			if f.recvErr != nil {
				return transport.Envelope{}, f.recvErr
			}
			return transport.Envelope{}, transport.ErrClosed
		}
		return env, nil
	case <-ctx.Done():
		return transport.Envelope{}, ctx.Err()
	}
}

func (f *fakeNode) Reply(env transport.Envelope, kind string, payload []byte) error {
	if f.block != nil {
		f.block(env)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replies[env.From] = append(f.replies[env.From], string(payload))
	return nil
}

// TestDaemonServeConcurrent drives Serve's worker pool: four read commands
// from four clients are held in-flight simultaneously (observed via the
// daemon_inflight gauge), then released; every client gets exactly one
// successful reply routed back to it.
func TestDaemonServeConcurrent(t *testing.T) {
	const n = 4
	reg := obs.NewRegistry()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		Metrics:        reg,
		Workers:        n,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	d.handleStarted = func(Command) {
		arrived <- struct{}{}
		<-release
	}

	node := newFakeNode(nil)
	body := EncodeCommand(Command{Cmd: "read", Signers: []string{"carol"}})
	for i := 0; i < n; i++ {
		node.envs <- transport.Envelope{From: fmt.Sprintf("c%d", i), Kind: "cmd", Payload: body}
	}
	close(node.envs)

	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(context.Background(), node) }()

	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d commands in flight", i, n)
		}
	}
	if got := reg.Gauge(MetricInflight).Value(); got != n {
		t.Errorf("daemon_inflight = %d with %d commands held, want %d", got, n, n)
	}
	close(release)

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain and exit")
	}
	if got := reg.Gauge(MetricInflight).Value(); got != 0 {
		t.Errorf("daemon_inflight = %d after drain, want 0", got)
	}
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("c%d", i)
		rs := node.replies[from]
		if len(rs) != 1 {
			t.Fatalf("client %s got %d replies, want 1", from, len(rs))
		}
		reply, err := DecodeReply([]byte(rs[0]))
		if err != nil {
			t.Fatal(err)
		}
		if !reply.OK {
			t.Errorf("client %s reply: %+v", from, reply)
		}
	}
	if got := reg.Counter(MetricServeErrors).Value(); got != 0 {
		t.Errorf("serve errors = %d on clean close, want 0", got)
	}
}

// TestDaemonServeMixedDynamics runs request commands concurrently with a
// join: the dynamics gate must keep the rekey atomic with respect to
// in-flight reads, and every command still gets a reply.
func TestDaemonServeMixedDynamics(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		Metrics:        reg,
		Workers:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := newFakeNode(nil)
	read := EncodeCommand(Command{Cmd: "read", Signers: []string{"carol"}})
	join := EncodeCommand(Command{Cmd: "join", Domain: "D4"})
	for i := 0; i < 8; i++ {
		payload := read
		if i == 3 {
			payload = join
		}
		node.envs <- transport.Envelope{From: fmt.Sprintf("c%d", i), Payload: payload}
	}
	close(node.envs)
	if err := d.Serve(context.Background(), node); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := 0; i < 8; i++ {
		from := fmt.Sprintf("c%d", i)
		if len(node.replies[from]) != 1 {
			t.Fatalf("client %s got %d replies, want 1", from, len(node.replies[from]))
		}
		reply, err := DecodeReply([]byte(node.replies[from][0]))
		if err != nil {
			t.Fatal(err)
		}
		if !reply.OK {
			t.Errorf("client %s reply: %+v", from, reply)
		}
	}
}

// TestDaemonServeErrorTaxonomy distinguishes Serve's exits: a transport
// failure is counted and returned, a context cancel is returned uncounted,
// a clean close returns nil.
func TestDaemonServeErrorTaxonomy(t *testing.T) {
	boom := errors.New("wire torn")

	t.Run("transport failure", func(t *testing.T) {
		reg := obs.NewRegistry()
		d := newDaemonWithRegistry(t, reg)
		node := newFakeNode(boom)
		close(node.envs)
		if err := d.Serve(context.Background(), node); !errors.Is(err, boom) {
			t.Fatalf("Serve = %v, want %v", err, boom)
		}
		if got := reg.Counter(MetricServeErrors).Value(); got != 1 {
			t.Errorf("serve errors = %d, want 1", got)
		}
	})

	t.Run("context cancel", func(t *testing.T) {
		reg := obs.NewRegistry()
		d := newDaemonWithRegistry(t, reg)
		node := newFakeNode(nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := d.Serve(ctx, node); !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve = %v, want context.Canceled", err)
		}
		if got := reg.Counter(MetricServeErrors).Value(); got != 0 {
			t.Errorf("serve errors = %d, want 0", got)
		}
	})

	t.Run("clean close", func(t *testing.T) {
		reg := obs.NewRegistry()
		d := newDaemonWithRegistry(t, reg)
		node := newFakeNode(nil)
		close(node.envs)
		if err := d.Serve(context.Background(), node); err != nil {
			t.Fatalf("Serve = %v, want nil", err)
		}
		if got := reg.Counter(MetricServeErrors).Value(); got != 0 {
			t.Errorf("serve errors = %d, want 0", got)
		}
	})
}

func newDaemonWithRegistry(t *testing.T, reg *obs.Registry) *Daemon {
	t.Helper()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAuditRetentionDefault: AuditRetention 0 bounds the in-memory audit
// log at the default, a negative value leaves it unbounded, and the
// follower resolves its setting by the same rule.
func TestAuditRetentionDefault(t *testing.T) {
	for _, c := range []struct{ setting, wantLen int }{
		{0, defaultAuditRetention},
		{-1, defaultAuditRetention + 4},
	} {
		d, err := New(Config{Domains: []string{"D1", "D2"}, Users: []string{"alice", "bob"}, AuditRetention: c.setting})
		if err != nil {
			t.Fatal(err)
		}
		log := d.server.Audit()
		for log.Len()+log.Evicted() < defaultAuditRetention+4 {
			log.Record(audit.Entry{})
		}
		if log.Len() != c.wantLen {
			t.Errorf("AuditRetention %d: %d entries retained, want %d", c.setting, log.Len(), c.wantLen)
		}
	}
	for setting, want := range map[int]int{0: defaultAuditRetention, -1: 0, 7: 7} {
		if got := auditRetention(setting); got != want {
			t.Errorf("auditRetention(%d) = %d, want %d", setting, got, want)
		}
	}
}
