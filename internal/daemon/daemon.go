// Package daemon implements the coalition policy daemon behind
// cmd/coalitiond: a demo alliance served over the transport, driven by
// simple JSON commands (cmd/policyctl). The daemon holds the demo users'
// keys so the client can stay a thin driver; a production deployment
// would keep keys inside their domains and ship signed request components
// (internal/authz supports exactly that wire shape).
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"jointadmin"
	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/replication"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// Command is the client → daemon request.
type Command struct {
	// ID is the client-chosen request identifier, echoed verbatim in
	// every Reply. The mux client (Client) sets a unique ID per call and
	// demultiplexes concurrent in-flight replies by it; the serve
	// pipeline replays the recorded answer for a duplicated ID instead of
	// re-executing the command. Every client should set one — a command
	// without an ID is handled, but retries of it re-execute.
	ID string `json:"id,omitempty"`
	// Cmd selects the operation: write, read, revoke, mutate, audit,
	// stats, join, leave, sign (writers); authorize, audit, stats,
	// replstatus (followers).
	Cmd string `json:"cmd"`
	// Group overrides the default group of the command (G_write for
	// write/revoke and for a sign with Op write or modify, G_read for read
	// and any other sign).
	Group string `json:"group,omitempty"`
	// Object names the target object (default: the daemon's demo object).
	Object string `json:"object,omitempty"`
	// Data is the write payload (write, sign) or the JSON-encoded wire
	// AccessRequest to evaluate (a follower's authorize command).
	Data string `json:"data,omitempty"`
	// Op is the permission a sign command requests (default "read"), or
	// the mutation verb of a mutate command (one per authz.Mutation
	// variant: link, revoke, revoke-identity, crl, reanchor, delegate,
	// graph-link).
	Op string `json:"op,omitempty"`
	// Signers are the co-signing users of a joint request.
	Signers []string `json:"signers,omitempty"`
	// Delegated routes a write/read/sign command through the lone
	// signer's delegation chain instead of a group certificate.
	Delegated bool `json:"delegated,omitempty"`
	// Domain is the subject of join/leave.
	Domain string `json:"domain,omitempty"`
}

// Reply is the daemon → client response.
type Reply struct {
	// ID echoes the Command's request identifier.
	ID string `json:"id,omitempty"`
	// OK reports whether the command succeeded.
	OK bool `json:"ok"`
	// Detail is a human-readable outcome (approval route, error text).
	Detail string `json:"detail,omitempty"`
	// Data carries command output: read results, the rendered audit log,
	// or the JSON metrics snapshot of the stats command.
	Data string `json:"data,omitempty"`
}

// Config sets up the demo alliance.
type Config struct {
	// Domains are the founding member domains (at least 2).
	Domains []string
	// Users are the demo users, assigned to domains round-robin.
	Users []string
	// WriteThreshold is the number of co-signers required for writes
	// (default 2).
	WriteThreshold int
	// Object names the initially installed object (default "O").
	Object string
	// Metrics receives the daemon's (and its authz server's) metrics.
	// Optional; leave nil to run without metrics. The registry is
	// injected, never global, so embedders and tests own their own.
	Metrics *obs.Registry
	// Workers bounds how many commands Serve handles concurrently
	// (default GOMAXPROCS). Each worker writes its own reply on the
	// command's connection.
	Workers int
	// DedupCap bounds the ID-keyed recently-answered cache duplicate
	// commands are replayed from (default defaultDedupCap).
	DedupCap int

	// Transport configures the daemon's TCP resilience — dial and write
	// deadlines plus the bounded retry/backoff policy replies are sent
	// under (see transport.Options). Zero values select the transport
	// defaults; Listen applies it to the node it creates.
	Transport transport.Options

	// DataDir, when set, makes coalition state durable: every belief
	// mutation (revocation, re-anchoring, group link) and audit decision
	// is recorded in a write-ahead log under this directory before it is
	// acknowledged, and replayed on startup — a restarted daemon still
	// denies what was revoked before the crash. Empty runs in-memory
	// only.
	DataDir string
	// WALBatchWindow is the group-commit fsync window (0 = fsync on
	// every append; see docs/OPERATIONS.md for the trade-offs).
	WALBatchWindow time.Duration
	// AuditRetention caps the in-memory audit log at its newest entries.
	// 0 selects the default (4 096); negative keeps everything in memory.
	// An evicted entry is recoverable only from the WAL, so only with
	// DataDir set (compaction keeps this many audit records, every one
	// when AuditRetention ≤ 0); without DataDir it is gone.
	AuditRetention int
	// CompactBytes triggers log compaction after a dynamics command once
	// wal.log exceeds this size. 0 selects the default (4 MiB); negative
	// disables compaction.
	CompactBytes int64

	// Replicate enables the writer-side log shipper: followers that
	// hello this daemon receive the WAL stream (docs/REPLICATION.md).
	// Requires DataDir — replication ships the durable log.
	Replicate bool
	// ReplBatch bounds records per shipped frame (default 64).
	ReplBatch int
	// ReplHeartbeat is the idle status interval per follower stream
	// (default 1s); it is the dominant term of the follower staleness
	// bound.
	ReplHeartbeat time.Duration
	// ReplSnapshotEvery re-ships a full snapshot (including object
	// state) after this many records per follower (default 4096).
	ReplSnapshotEvery int
}

// Daemon metric names.
const (
	// metricCommands counts handled commands, labeled cmd=<name>.
	metricCommands = "daemon_commands_total"
	// metricCommandSeconds times command handling, labeled cmd=<name>.
	metricCommandSeconds = "daemon_command_seconds"
	// metricCommandErrors counts failed commands, labeled cmd=<name> and
	// kind=<error class>: errClass's label for a sentinel error, or the
	// handler's own (bad_args, unknown_verb, wal, ...).
	metricCommandErrors = "daemon_command_errors_total"
	// metricRequestSignSeconds times building and co-signing the access
	// request of a write, read or sign command (Alliance.NewRequest: the
	// identity certificates the domains hold — a CA signature only when
	// one is re-issued — and the users' signed request components),
	// before any decision.
	metricRequestSignSeconds = "daemon_request_sign_seconds"
	// metricRekeySeconds times the two phases of a join or leave, labeled
	// phase=keygen (the prepare: the joining domain's CA key, and the AA's
	// shares redistributed under its unchanged key — or, when a domain is
	// down, a new shared AA key) or phase=cutover (commit, re-anchor and
	// compaction). Requests are held for both.
	metricRekeySeconds = "daemon_rekey_seconds"
	// metricInflight gauges commands currently being handled.
	metricInflight = "daemon_inflight"
	// metricServeErrors counts Serve loops terminated by a transport
	// failure (as opposed to a clean listener close or context cancel).
	metricServeErrors = "daemon_serve_errors_total"
)

// Daemon is the running coalition policy service.
type Daemon struct {
	alliance  *jointadmin.Alliance
	server    *jointadmin.Server
	object    string
	reg       *obs.Registry
	met       *commandMetrics
	workers   int
	dedupCap  int
	transport transport.Options

	// signSeconds is daemon_request_sign_seconds, resolved once so a
	// request's observation allocates nothing.
	signSeconds *obs.Histogram
	// keygenSeconds and cutoverSeconds are daemon_rekey_seconds' phases.
	keygenSeconds, cutoverSeconds *obs.Histogram

	// wal is the durable state log (nil without Config.DataDir).
	wal          *wal.Log
	compactBytes int64
	keepAudit    int

	// replicate enables the log shipper in Serve; the repl* fields tune
	// it.
	replicate         bool
	replBatch         int
	replHeartbeat     time.Duration
	replSnapshotEvery int

	// dyn gates coalition dynamics (revoke, mutate, join, leave — which
	// rewrite alliance certificates and re-anchor the server) against the
	// request commands that run concurrently on the worker pool. Request
	// commands share the read side; dynamics take the write side. A join
	// or leave holds it for both its phases, the keygen and the cut-over
	// (daemon_rekey_seconds times each).
	dyn sync.RWMutex

	// handleStarted, when set (tests), runs after a command is counted
	// in-flight and before it is dispatched.
	handleStarted func(Command)
}

// New forms the alliance, enrolls the users, issues the write/read
// certificates and installs the object.
func New(cfg Config) (*Daemon, error) {
	if len(cfg.Domains) < 2 {
		return nil, fmt.Errorf("daemon: at least 2 domains required")
	}
	if cfg.WriteThreshold == 0 {
		cfg.WriteThreshold = 2
	}
	if cfg.Object == "" {
		cfg.Object = "O"
	}
	a, err := jointadmin.NewAlliance("coalitiond", cfg.Domains)
	if err != nil {
		return nil, err
	}
	for i, u := range cfg.Users {
		if err := a.EnrollUser(cfg.Domains[i%len(cfg.Domains)], u); err != nil {
			return nil, err
		}
	}
	if err := a.GrantThreshold("G_write", cfg.WriteThreshold, cfg.Users...); err != nil {
		return nil, err
	}
	if err := a.GrantThreshold("G_read", 1, cfg.Users...); err != nil {
		return nil, err
	}
	srv, err := a.NewServer("P")
	if err != nil {
		return nil, err
	}
	if err := srv.CreateObject(cfg.Object, map[string][]string{
		"G_write": {"write"},
		"G_read":  {"read"},
	}, []byte("initial content")); err != nil {
		return nil, err
	}
	srv.Authz().Instrument(cfg.Metrics)
	if n := auditRetention(cfg.AuditRetention); n > 0 {
		srv.Audit().SetRetention(n, nil)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Replicate && cfg.DataDir == "" {
		return nil, fmt.Errorf("daemon: replication requires DataDir (the shipper streams the durable log)")
	}
	d := &Daemon{alliance: a, server: srv, object: cfg.Object, reg: cfg.Metrics,
		met:     newCommandMetrics(cfg.Metrics, "write", "read", "revoke", "mutate", "join", "leave", "sign", "audit", "stats"),
		workers: workers, dedupCap: cfg.DedupCap, transport: cfg.Transport,
		replicate: cfg.Replicate, replBatch: cfg.ReplBatch,
		replHeartbeat: cfg.ReplHeartbeat, replSnapshotEvery: cfg.ReplSnapshotEvery,
		signSeconds:    cfg.Metrics.Histogram(metricRequestSignSeconds, nil),
		keygenSeconds:  cfg.Metrics.Histogram(metricRekeySeconds, nil, "phase", "keygen"),
		cutoverSeconds: cfg.Metrics.Histogram(metricRekeySeconds, nil, "phase", "cutover")}
	if cfg.DataDir != "" {
		if err := d.openWAL(cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// defaultAuditRetention is the in-memory audit bound AuditRetention 0
// selects.
const defaultAuditRetention = 4096

// auditRetention resolves an AuditRetention setting to the in-memory
// bound: 0 selects the default, a negative value means unbounded (0).
func auditRetention(n int) int {
	switch {
	case n == 0:
		return defaultAuditRetention
	case n < 0:
		return 0
	}
	return n
}

// openWAL recovers the daemon's durable state and attaches the journal.
// The daemon's authorities regenerate their keys every boot, so recovery
// uses ReplayBeliefs: the fresh anchors stand, and the belief mutations
// recorded since the last re-anchoring — crucially, revocations — are
// re-applied. Revocation matching is by principal name, so a revocation
// recorded before the crash still blocks the re-issued certificates.
func (d *Daemon) openWAL(cfg Config) error {
	l, recs, err := wal.Open(cfg.DataDir, wal.Options{
		BatchWindow: cfg.WALBatchWindow,
		Metrics:     cfg.Metrics,
		Logf:        log.Printf,
	})
	if err != nil {
		return fmt.Errorf("daemon: open wal: %w", err)
	}
	rep, err := d.server.Authz().Replay(recs, authz.ReplayBeliefs)
	if err != nil {
		l.Close()
		return fmt.Errorf("daemon: wal replay: %w", err)
	}
	if rep.Records > 0 {
		log.Printf("daemon: %s", rep)
	}
	if err := d.server.Authz().SetJournal(l); err != nil {
		l.Close()
		return fmt.Errorf("daemon: attach journal: %w", err)
	}
	// The authorities regenerated their keys this boot, so re-describe
	// the live trust state for ReplayExact consumers (replication
	// followers, wal -dump): without this, the journal would still end at
	// the previous boot's anchors.
	if err := d.server.Authz().Rejournal(recs); err != nil {
		l.Close()
		return fmt.Errorf("daemon: rejournal current state: %w", err)
	}
	d.wal = l
	d.compactBytes = cfg.CompactBytes
	if d.compactBytes == 0 {
		d.compactBytes = 4 << 20
	}
	d.keepAudit = cfg.AuditRetention
	if d.keepAudit <= 0 {
		d.keepAudit = -1 // keep all audit records across compactions
	}
	return nil
}

// Close flushes and releases the daemon's durable resources. Call after
// Serve returns; a daemon without a data dir needs no Close.
func (d *Daemon) Close() error {
	if d.wal != nil {
		return d.wal.Close()
	}
	return nil
}

// maybeCompact folds the log into the snapshot once it outgrows the
// configured bound. Called after dynamics commands (the natural
// compaction points: a re-anchoring's record holds every belief it
// carries, so it supersedes earlier belief mutations).
func (d *Daemon) maybeCompact() {
	if d.wal == nil || d.compactBytes <= 0 || d.wal.LogBytes() < d.compactBytes {
		return
	}
	if err := d.wal.Compact(wal.CompactPolicy(d.keepAudit)); err != nil {
		log.Printf("daemon: wal compaction: %v", err)
	}
}

// Listen opens the daemon's TCP command node on addr with the configured
// transport options (Config.Transport) and metrics registry applied —
// the node coalitiond hands to Serve.
func (d *Daemon) Listen(addr string) (*transport.TCPNode, error) {
	node, err := transport.ListenTCP("coalitiond", addr, d.transport)
	if err != nil {
		return nil, err
	}
	node.Instrument(d.reg)
	return node, nil
}

// Alliance exposes the underlying alliance (tests, dynamics).
func (d *Daemon) Alliance() *jointadmin.Alliance { return d.alliance }

// errClass maps an error to its taxonomy label, keyed on the system's
// sentinel errors; the daemon_command_errors_total counter is labeled
// with it.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, jointadmin.ErrNoGroup):
		return "no_group"
	case errors.Is(err, jointadmin.ErrDenied):
		return "denied"
	case errors.Is(err, sharedrsa.ErrSignFault):
		return "sign_fault"
	default:
		return "internal"
	}
}

// Handle executes one command, counting it (and its error class, when it
// fails) in the injected registry. Handle is safe for concurrent use —
// Serve's worker pool calls it from several goroutines; coalition
// dynamics are serialized against in-flight requests internally. The
// context cancels in-flight authorization work; a nil context is treated
// as context.Background.
func (d *Daemon) Handle(ctx context.Context, cmd Command) Reply {
	return observed(ctx, d.met, cmd, d.handle)
}

// commandMetrics holds the series observed touches on every command: the
// in-flight gauge, and the counter and latency histogram of each command
// a role serves, resolved once, so a command costs no labeled registry
// lookup. Any other command name (a verb the role refuses, an unknown
// one) is resolved when it arrives.
type commandMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	byName   map[string]commandSeries // read-only after construction
}

// commandSeries is one command name's counter and latency histogram.
type commandSeries struct {
	count   *obs.Counter
	seconds *obs.Histogram
}

func newCommandMetrics(reg *obs.Registry, names ...string) *commandMetrics {
	m := &commandMetrics{reg: reg, inflight: reg.Gauge(metricInflight), byName: make(map[string]commandSeries, len(names))}
	for _, name := range names {
		m.byName[name] = m.resolve(name)
	}
	return m
}

func (m *commandMetrics) resolve(name string) commandSeries {
	return commandSeries{
		count:   m.reg.Counter(metricCommands, "cmd", name),
		seconds: m.reg.Histogram(metricCommandSeconds, nil, "cmd", name),
	}
}

// of returns the series of the named command.
func (m *commandMetrics) of(name string) commandSeries {
	if s, ok := m.byName[name]; ok {
		return s
	}
	return m.resolve(name)
}

// observed runs one command handler under the daemon metric vocabulary
// shared by both roles: the in-flight gauge, the per-command counter and
// latency histogram, and the error-class counter when the reply fails. A
// nil context is treated as context.Background.
func observed(ctx context.Context, m *commandMetrics, cmd Command, handle func(context.Context, Command) (Reply, string)) Reply {
	if ctx == nil {
		ctx = context.Background()
	}
	m.inflight.Inc()
	defer m.inflight.Dec()
	start := time.Now()
	reply, errKind := handle(ctx, cmd)
	series := m.of(cmd.Cmd)
	series.count.Inc()
	series.seconds.ObserveSince(start)
	if !reply.OK {
		if errKind == "" {
			errKind = "internal"
		}
		m.reg.Counter(metricCommandErrors, "cmd", cmd.Cmd, "kind", errKind).Inc()
	}
	return reply
}

// handle dispatches one command and reports the error class on failure.
func (d *Daemon) handle(ctx context.Context, cmd Command) (Reply, string) {
	if d.handleStarted != nil {
		d.handleStarted(cmd)
	}
	a, srv := d.alliance, d.server
	switch cmd.Cmd {
	case "revoke", "mutate", "join", "leave":
		d.dyn.Lock()
		defer d.dyn.Unlock()
	default:
		d.dyn.RLock()
		defer d.dyn.RUnlock()
	}
	a.Clock().Tick()
	switch cmd.Cmd {
	case "join", "leave":
		return d.rekey(cmd)
	case "write", "read":
		var payload []byte
		if cmd.Cmd == "write" {
			payload = []byte(cmd.Data)
		}
		req, err := d.signRequest(cmd, cmd.Cmd, payload)
		if err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		dec, err := srv.Request(ctx, req)
		if err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: fmt.Sprintf("approved via %s [%s]", dec.Group, dec.RequestID), Data: string(dec.Data)}, ""
	case "revoke", "mutate":
		// One verb per authz.Mutation variant, applied through the unified
		// Server.Apply path (via the alliance helpers, which build and
		// deliver the certificates). The legacy revoke command is the
		// group-revocation verb.
		if cmd.Cmd == "revoke" {
			cmd.Op, cmd.Data = authz.VerbRevocation, ""
		}
		reply, kind := d.mutate(cmd)
		if reply.OK {
			d.maybeCompact()
		}
		return reply, kind
	case "sign":
		// Build (and co-sign) a wire AccessRequest without evaluating it:
		// the caller submits it to replication followers via their
		// authorize command. The daemon holds the demo users’ keys, so
		// signing stays writer-side; followers never see private keys.
		op := opOf(cmd)
		req, err := d.signRequest(cmd, op, []byte(cmd.Data))
		if err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return Reply{Detail: "encode request: " + err.Error()}, "internal"
		}
		return Reply{OK: true, Detail: fmt.Sprintf("signed %s request for %s", op, group(cmd.Group, groupFor(op))), Data: string(body)}, ""
	case "audit":
		return Reply{OK: true, Data: srv.Audit().Render()}, ""
	case "stats":
		if d.reg == nil {
			return Reply{Detail: "metrics not enabled (start coalitiond with -metrics-addr)"}, "no_metrics"
		}
		body, err := json.Marshal(d.reg.Snapshot())
		if err != nil {
			return Reply{Detail: "encode snapshot: " + err.Error()}, "internal"
		}
		return Reply{OK: true, Data: string(body)}, ""
	default:
		return Reply{Detail: "unknown command " + cmd.Cmd}, "unknown_command"
	}
}

// rekey runs a join or leave in its two phases, both under the dynamics
// gate's write side: the prepare (PrepareJoin, PrepareLeave: a share
// redistribution, or a keygen when a domain is down), then the cut-over
// — commit, re-anchor, compaction. The change takes effect at its
// commit. The gate covers the prepare too: with requests running beside
// it, a stream of joins and leaves falls behind the requests between
// them. The reply names the epoch and which path ran.
func (d *Daemon) rekey(cmd Command) (Reply, string) {
	a := d.alliance
	prepare := a.PrepareJoin
	if cmd.Cmd == "leave" {
		prepare = a.PrepareLeave
	}
	// The commit cannot be undone, so a re-anchoring the server could
	// not record refuses the change before anything is prepared.
	if err := d.server.Authz().CheckReanchor(); err != nil {
		return Reply{Detail: "re-anchor: " + err.Error()}, "wal"
	}
	start := time.Now()
	r, err := prepare(cmd.Domain)
	if err != nil {
		return Reply{Detail: err.Error()}, errClass(err)
	}
	d.keygenSeconds.ObserveSince(start)
	defer d.cutoverSeconds.ObserveSince(time.Now())
	report, err := a.Commit(r)
	if err != nil {
		return Reply{Detail: err.Error()}, errClass(err)
	}
	if err := a.Reanchor(d.server); err != nil {
		return Reply{Detail: "re-anchor: " + err.Error()}, "wal"
	}
	d.maybeCompact()
	path := "AA re-keyed"
	if report.Redistributed {
		path = "shares redistributed"
	}
	return Reply{OK: true, Detail: fmt.Sprintf("epoch %d: revoked %d, re-issued %d, %s (server re-anchored)",
		report.Epoch, report.CertsRevoked, report.CertsReissued, path)}, ""
}

// mutate dispatches one belief mutation by verb. Verbs mirror the
// authz.Mutation sum type (authz.Verbs); the daemon builds the mutation's
// certificate at the alliance authorities and delivers it to the server.
func (d *Daemon) mutate(cmd Command) (Reply, string) {
	a, srv := d.alliance, d.server
	switch cmd.Op {
	case authz.VerbGroupLink:
		if cmd.Group == "" || cmd.Data == "" {
			return Reply{Detail: "mutate link needs group (sub) and data (sup)"}, "bad_args"
		}
		if err := a.LinkGroups(cmd.Group, cmd.Data, srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: fmt.Sprintf("linked %s ⇒ %s", cmd.Group, cmd.Data)}, ""
	case authz.VerbRevocation:
		if cmd.Data != "" {
			// Non-empty data names a delegate: sever every chain routed
			// through that subject in the group.
			g := group(cmd.Group, "G_write")
			if err := a.RevokeDelegation(cmd.Data, g, srv); err != nil {
				return Reply{Detail: err.Error()}, errClass(err)
			}
			return Reply{OK: true, Detail: fmt.Sprintf("revoked delegation of %s in %s", cmd.Data, g)}, ""
		}
		if err := a.Revoke(group(cmd.Group, "G_write"), srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: "revoked " + group(cmd.Group, "G_write")}, ""
	case authz.VerbDelegation:
		if cmd.Group == "" || cmd.Data == "" {
			return Reply{Detail: "mutate delegate needs group and data ([delegator>]subject:depth:perms)"}, "bad_args"
		}
		delegator, spec := "", cmd.Data
		if head, rest, ok := strings.Cut(spec, ">"); ok {
			delegator, spec = head, rest
		}
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return Reply{Detail: "mutate delegate data must be [delegator>]subject:depth:perms"}, "bad_args"
		}
		depth, err := strconv.Atoi(parts[1])
		if err != nil || depth < 0 {
			return Reply{Detail: "mutate delegate: bad depth " + parts[1]}, "bad_args"
		}
		if err := a.Delegate(delegator, parts[0], cmd.Group, depth, strings.Split(parts[2], ","), srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: fmt.Sprintf("delegated %s in %s (depth %d, perms %s)", parts[0], cmd.Group, depth, parts[2])}, ""
	case authz.VerbGroupGraphLink:
		if cmd.Group == "" || cmd.Data == "" {
			return Reply{Detail: "mutate graph-link needs group (sub) and data (sup:depth)"}, "bad_args"
		}
		sup, depthStr, ok := strings.Cut(cmd.Data, ":")
		if !ok {
			return Reply{Detail: "mutate graph-link data must be sup:depth"}, "bad_args"
		}
		depth, err := strconv.Atoi(depthStr)
		if err != nil || depth < 0 {
			return Reply{Detail: "mutate graph-link: bad depth " + depthStr}, "bad_args"
		}
		if err := a.LinkGroupGraph(cmd.Group, sup, depth, srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: fmt.Sprintf("graph-linked %s ⇒ %s (depth %d)", cmd.Group, sup, depth)}, ""
	case authz.VerbIdentityRevocation:
		if cmd.Data == "" {
			return Reply{Detail: "mutate revoke-identity needs data (user)"}, "bad_args"
		}
		if err := a.RevokeIdentity(cmd.Data, srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: "revoked identity of " + cmd.Data}, ""
	case authz.VerbCRL:
		if err := a.PublishCRL(srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: "published CRL"}, ""
	case authz.VerbReanchor:
		if err := a.Reanchor(srv); err != nil {
			return Reply{Detail: err.Error()}, errClass(err)
		}
		return Reply{OK: true, Detail: "re-anchored at current key epoch"}, ""
	default:
		return Reply{Detail: fmt.Sprintf("unknown mutation verb %q (one of %s)",
			cmd.Op, strings.Join(authz.Verbs, ", "))}, "unknown_verb"
	}
}

func (d *Daemon) objectOf(cmd Command) string {
	if cmd.Object == "" {
		return d.object
	}
	return cmd.Object
}

func group(g, def string) string {
	if g == "" {
		return def
	}
	return g
}

// groupFor is the default group of a request for op: G_write for write
// and modify, G_read for anything else.
func groupFor(op string) string {
	if op == "write" || op == "modify" {
		return "G_write"
	}
	return "G_read"
}

// signRequest builds and co-signs cmd's access request for op — each
// signer's held identity certificate and one signed component per signer,
// so repeated requests carry the same certificate bytes and hit the
// server's verified-certificate cache — and times it into
// daemon_request_sign_seconds.
func (d *Daemon) signRequest(cmd Command, op string, payload []byte) (jointadmin.AccessRequest, error) {
	start := time.Now()
	req, err := d.alliance.NewRequest(jointadmin.RequestSpec{
		Group: group(cmd.Group, groupFor(op)), Op: op,
		Object: d.objectOf(cmd), Payload: payload, Signers: cmd.Signers,
		Delegated: cmd.Delegated,
	})
	d.signSeconds.ObserveSince(start)
	return req, err
}

func opOf(cmd Command) string {
	if cmd.Op == "" {
		return "read"
	}
	return cmd.Op
}

// Serve answers commands on the endpoint until it closes or the context
// is canceled, running the shared serve pipeline (pipeline.Serve:
// bounded worker pool, ID-keyed dedup replay, replies on the command's
// connection) over Daemon.Handle. Replication frames are intercepted
// before the command pool: the shipper only registers the follower and
// the hello's connection, and signals its stream goroutine.
//
// Serve returns the context's error when canceled and nil on a clean
// listener close; any other transport failure is counted in
// daemon_serve_errors_total and returned.
func (d *Daemon) Serve(ctx context.Context, node commandNode) error {
	var intercept func(env transport.Envelope) bool
	if d.replicate && d.wal != nil {
		shipper := replication.NewShipper(d.wal, node, replication.ShipperOptions{
			Batch:         d.replBatch,
			Heartbeat:     d.replHeartbeat,
			SnapshotEvery: d.replSnapshotEvery,
			Metrics:       d.reg,
			Logf:          log.Printf,
			State: func() (uint64, uint64) {
				sn := d.server.Authz().Snapshot()
				return sn.Epoch, sn.Watermark
			},
			Objects: func() ([]acl.ObjectState, error) {
				return d.server.Authz().Objects().Export()
			},
			Now: d.alliance.Clock().Now,
		})
		defer shipper.Close()
		intercept = func(env transport.Envelope) bool {
			if !replication.IsReplication(env.Kind) {
				return false
			}
			shipper.Handle(env)
			return true
		}
	}
	return newPipeline(pipelineConfig{
		Handler:   d.Handle,
		Workers:   d.workers,
		DedupCap:  d.dedupCap,
		Metrics:   d.reg,
		Intercept: intercept,
		Tag:       "daemon",
	}).Serve(ctx, node)
}
