// Package replication turns the single coalition daemon into a
// replicated read fleet: one writer accepting coalition dynamics and
// streaming its write-ahead log to N follower daemons that serve
// authorization decisions at their replayed watermark — the deployment
// shape policy-distribution systems (OPA bundles, CRL mirrors) use, and
// the one the paper's model implies: many relying parties evaluating
// joint-admin policy against a shared, evolving belief state.
//
// The protocol has four frame kinds, all riding the existing transport
// as Envelopes whose Kind starts with "repl.":
//
//   - hello (follower → writer): announces the follower and the last WAL
//     sequence number it holds; sent on start, after detected loss, and
//     whenever the writer goes silent. The frames below answer it.
//   - snapshot (writer → follower): the full retained record history in
//     the WAL's own CRC framing plus the exported object store; installs
//     a complete replica and re-bases the follower's cursor.
//   - records (writer → follower): a contiguous WAL tail batch, again
//     CRC-framed; the follower applies it via authz.ApplyReplicated.
//   - status (writer → follower): heartbeat carrying the writer's head
//     sequence, epoch and watermark, so an idle follower can both
//     detect loss (head ahead of its cursor) and export lag gauges.
//
// Catch-up decision: a hello with Full set, or with a cursor ahead of the
// writer's head, gets a snapshot, and so does a cursor the writer's
// wal.Log.ReadFrom refuses with wal.ErrCompacted (the records past it
// were folded into the on-disk snapshot); everything else gets the tail
// from exactly its cursor. The sequence contract is strict — a
// snapshot's LastSeq names the last record it contains and the first
// tail record after it is LastSeq+1; the applier rejects any gap and
// resyncs.
//
// Failure model: frames may be dropped, duplicated or delayed
// (transport.Faulty injects all three in tests). Duplicates are shed by
// sequence number, gaps force a resync, CRC damage fails closed exactly
// like mid-log corruption at recovery, and writer restarts are healed by
// the follower's silence-triggered hello, which also heals a lost
// connection. A follower is at most (heartbeat interval + resync
// threshold) behind an acknowledged mutation — the staleness bound
// docs/REPLICATION.md derives.
package replication

import (
	"strings"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/transport"
)

// Envelope kinds of the replication protocol.
const (
	// kindHello is the follower's announcement / resync request.
	kindHello = "repl.hello"
	// kindSnapshot carries a full history + object-store handoff.
	kindSnapshot = "repl.snapshot"
	// kindRecords carries a contiguous WAL tail batch.
	kindRecords = "repl.records"
	// kindStatus is the writer's heartbeat.
	kindStatus = "repl.status"
)

// IsReplication reports whether an envelope kind belongs to the
// replication protocol (the daemon serve loops route on it).
func IsReplication(kind string) bool { return strings.HasPrefix(kind, "repl.") }

// helloMsg is the follower → writer announcement.
type helloMsg struct {
	// Follower names the follower's node.
	Follower string `json:"follower"`
	// LastSeq is the highest WAL sequence the follower has applied.
	LastSeq uint64 `json:"lastSeq"`
	// Full forces a snapshot handoff regardless of LastSeq (fresh
	// follower — it needs the object store, which tail records never
	// carry — or one recovering from a failed apply).
	Full bool `json:"full,omitempty"`
	// env is the envelope the hello arrived in (not on the wire): the
	// writer ships on its connection.
	env transport.Envelope
}

// snapshotMsg is the writer → follower full-state handoff.
type snapshotMsg struct {
	// Frames is the retained record history's handoff, its frames copied
	// as the writer's snapshot and log store them (wal.Log.HistoryFrames);
	// the follower's wal.Scan checks each one.
	Frames []byte `json:"frames"`
	// LastSeq is the sequence number of the last record in Frames; the
	// first tail record shipped after this snapshot is LastSeq+1.
	LastSeq uint64 `json:"lastSeq"`
	// Objects is the writer's exported object store (content and ACLs
	// are not belief state and never enter the WAL).
	Objects []acl.ObjectState `json:"objects"`
	// Head, Epoch and Watermark describe the writer at capture time.
	Head      uint64 `json:"head"`
	Epoch     uint64 `json:"epoch"`
	Watermark uint64 `json:"watermark"`
	// Clock is the writer's logical time at capture; the follower's
	// replica clock advances to it (monotonically) so certificate
	// validity intervals evaluate at the writer's time frame.
	Clock clock.Time `json:"clock"`
}

// recordsMsg is one shipped WAL tail batch.
type recordsMsg struct {
	// Frames holds a contiguous run of records, CRC-framed, exactly as
	// the writer's log stores them (wal.Log.ReadFrom).
	Frames []byte `json:"frames"`
	// Head is the writer's last assigned sequence at send time, for lag
	// accounting.
	Head uint64 `json:"head"`
	// Clock is the writer's logical time at send; see snapshotMsg.Clock.
	Clock clock.Time `json:"clock"`
}

// statusMsg is the writer's heartbeat.
type statusMsg struct {
	Head      uint64     `json:"head"`
	Epoch     uint64     `json:"epoch"`
	Watermark uint64     `json:"watermark"`
	Clock     clock.Time `json:"clock"`
}

// node is the follower's transport surface: send a frame to the writer
// by name. *transport.TCPNode implements it.
type node interface {
	Send(to, kind string, payload []byte) error
}

// replier is the writer's transport surface: answer a hello on the
// connection it arrived on (*transport.TCPNode, the daemon's command node).
type replier interface {
	Reply(env transport.Envelope, kind string, payload []byte) error
}

// Writer-side metric names (labels: follower=<name>).
const (
	// metricFollowers gauges the follower streams currently registered.
	metricFollowers = "repl_followers"
	// metricRecordsShipped counts WAL records shipped per follower.
	metricRecordsShipped = "repl_records_shipped_total"
	// metricSnapshotsShipped counts snapshot handoffs per follower.
	metricSnapshotsShipped = "repl_snapshots_shipped_total"
	// metricHeartbeats counts status heartbeats per follower.
	metricHeartbeats = "repl_heartbeats_total"
	// metricShipErrors counts failed sends per follower (a shipped frame
	// is one write; the follower's resync recovers the stream).
	metricShipErrors = "repl_ship_errors_total"
)

// Follower-side metric names.
const (
	// metricAppliedRecords counts applied records, labeled type=<record
	// type>.
	metricAppliedRecords = "repl_applied_records_total"
	// MetricSnapshotsInstalled counts installed snapshot handoffs.
	MetricSnapshotsInstalled = "repl_snapshots_installed_total"
	// metricResyncs counts hello frames sent after the initial one —
	// loss, gap or silence recoveries.
	metricResyncs = "repl_resyncs_total"
	// metricStaleFrames counts duplicate or already-covered frames shed
	// by sequence number.
	metricStaleFrames = "repl_stale_frames_total"
	// metricApplyErrors counts frames rejected by CRC, boundary or
	// replay failure (the applier fails closed and resyncs), labelled
	// by reason (applyError).
	metricApplyErrors = "repl_apply_errors_total"
	// metricLastSeq gauges the follower's applied WAL sequence.
	metricLastSeq = "repl_last_seq"
	// metricEpoch gauges the follower's replayed epoch.
	metricEpoch = "repl_epoch"
	// metricWatermark gauges the follower's replayed watermark.
	metricWatermark = "repl_watermark"
	// metricLagRecords gauges writer head minus applied sequence — the
	// staleness the follower currently serves reads at.
	metricLagRecords = "repl_lag_records"
)
