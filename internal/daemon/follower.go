// Follower role: a read-only daemon that mirrors a writer's belief
// state over the replication protocol and serves authorization
// decisions at its replayed watermark. A follower holds no keys and
// accepts no dynamics — write/revoke/mutate/join/leave are rejected — so a
// compromised or lagging follower can at worst serve stale reads, never
// mint new authority. Clients obtain a signed wire AccessRequest from
// the writer's `sign` command and evaluate it here with `authorize`.

package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/replication"
	"jointadmin/internal/transport"
)

// FollowerConfig sets up a follower daemon.
type FollowerConfig struct {
	// Name is this follower's node name (default "follower"); every
	// follower in a fleet needs a distinct one.
	Name string
	// Writer and WriterAddr name and locate the writer daemon
	// (WriterAddr is the -follow flag; Writer defaults to "coalitiond").
	Writer     string
	WriterAddr string
	// Workers bounds concurrent command handling (default GOMAXPROCS).
	Workers int
	// DedupCap bounds the ID-keyed recently-answered cache (default
	// DefaultDedupCap).
	DedupCap int
	// Metrics receives the follower's metrics (replication lag gauges,
	// authz counters). Optional.
	Metrics *obs.Registry
	// Transport configures TCP resilience, as for the writer.
	Transport transport.Options
	// AuditRetention caps the replica's in-memory audit log, as for the
	// writer (0 selects 4 096, negative is unbounded). A follower has no
	// WAL and its own decisions are never journaled or shipped, so an
	// evicted entry is gone.
	AuditRetention int
	// ResyncAfter is the writer-silence threshold before the follower
	// re-hellos (default 3s). Lower it together with the writer's
	// -repl-heartbeat to tighten the staleness bound.
	ResyncAfter time.Duration
}

// Follower is a running read-only replica daemon.
type Follower struct {
	name    string
	writer  string
	reg     *obs.Registry
	workers int
	opts    transport.Options

	applier *replication.Applier
	cfg     FollowerConfig
}

// NewFollower validates the configuration; the applier is created at
// Listen time, once the node exists.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.WriterAddr == "" {
		return nil, errors.New("daemon: follower requires the writer's address (-follow)")
	}
	if cfg.Name == "" {
		cfg.Name = "follower"
	}
	if cfg.Writer == "" {
		cfg.Writer = "coalitiond"
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Follower{name: cfg.Name, writer: cfg.Writer, reg: cfg.Metrics,
		workers: workers, opts: cfg.Transport, cfg: cfg}, nil
}

// Listen opens the follower's TCP node on addr, registers the writer as
// a peer, and builds the applier around the node.
func (f *Follower) Listen(addr string) (*transport.TCPNode, error) {
	node, err := transport.ListenTCP(f.name, addr, f.opts)
	if err != nil {
		return nil, err
	}
	node.Instrument(f.reg)
	node.AddPeer(f.writer, f.cfg.WriterAddr)
	f.applier = replication.NewApplier(node, replication.ApplierOptions{
		Follower:       f.name,
		Writer:         f.writer,
		ResyncAfter:    f.cfg.ResyncAfter,
		AuditRetention: auditRetention(f.cfg.AuditRetention),
		Metrics:        f.reg,
		Logf:           log.Printf,
	})
	return node, nil
}

// Applier exposes the replication endpoint (tests, status).
func (f *Follower) Applier() *replication.Applier { return f.applier }

// Metrics returns the follower's injected registry.
func (f *Follower) Metrics() *obs.Registry { return f.reg }

// Serve answers commands and applies replication frames until the
// context is canceled or the listener closes. Commands run through the
// shared serve pipeline (worker pool, ID-keyed dedup replay, replies on
// the command's connection — see pipeline.Serve); replication frames
// arrive on the connection the follower dialed to the writer, and are
// intercepted
// and applied inline in the receive loop, preserving their arrival order
// (the protocol is sequential; the Authorize path reads the replica
// through an atomic pointer and never blocks on it).
func (f *Follower) Serve(ctx context.Context, node CommandNode) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if f.applier == nil {
		return errors.New("daemon: follower Serve before Listen")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var applierWG sync.WaitGroup
	applierWG.Add(1)
	go func() {
		defer applierWG.Done()
		f.applier.Run(runCtx)
	}()
	defer applierWG.Wait()

	return newPipeline(pipelineConfig{
		Handler:  f.Handle,
		Workers:  f.workers,
		DedupCap: f.cfg.DedupCap,
		Metrics:  f.reg,
		Intercept: func(env transport.Envelope) bool {
			if !replication.IsReplication(env.Kind) {
				return false
			}
			f.applier.Handle(env.Kind, env.Payload)
			return true
		},
		Tag: "follower",
	}).Serve(ctx, node)
}

// Handle executes one follower command with the writer-side metric
// vocabulary (daemon_commands_total etc.), so fleet dashboards aggregate
// across roles.
func (f *Follower) Handle(ctx context.Context, cmd Command) Reply {
	return observed(ctx, f.reg, cmd, f.handle)
}

// handle dispatches one follower command.
func (f *Follower) handle(ctx context.Context, cmd Command) (Reply, string) {
	switch cmd.Cmd {
	case "authorize":
		rep := f.applier.Replica()
		if rep == nil {
			return Reply{Detail: "follower not caught up (no replica installed yet)"}, "not_ready"
		}
		req, err := authz.DecodeAccessRequest([]byte(cmd.Data))
		if err != nil {
			return Reply{Detail: "bad access request: " + err.Error()}, "bad_request"
		}
		dec, err := rep.Srv.Authorize(ctx, req)
		if err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		st := f.applier.Status()
		detail := fmt.Sprintf("approved via %s [%s] at epoch %d watermark %d",
			dec.Group, dec.RequestID, st.Epoch, st.Watermark)
		return Reply{OK: true, Detail: detail, Data: string(dec.Data)}, ""
	case "audit":
		rep := f.applier.Replica()
		if rep == nil {
			return Reply{Detail: "follower not caught up"}, "not_ready"
		}
		return Reply{OK: true, Data: rep.Audit.Render()}, ""
	case "stats":
		if f.reg == nil {
			return Reply{Detail: "metrics not enabled (start coalitiond with -metrics-addr)"}, "no_metrics"
		}
		body, err := json.Marshal(f.reg.Snapshot())
		if err != nil {
			return Reply{Detail: "encode snapshot: " + err.Error()}, "internal"
		}
		return Reply{OK: true, Data: string(body)}, ""
	case "replstatus":
		body, err := json.Marshal(f.applier.Status())
		if err != nil {
			return Reply{Detail: "encode status: " + err.Error()}, "internal"
		}
		return Reply{OK: true, Data: string(body)}, ""
	case "write", "read", "revoke", "mutate", "join", "leave", "sign":
		return Reply{Detail: "read-only follower: " + cmd.Cmd + " must go to the writer"}, "read_only"
	default:
		return Reply{Detail: "unknown command " + cmd.Cmd}, "unknown_command"
	}
}
