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
// Catch-up decision: a hello below the writer's wal.TailFloor (or with
// Full set) gets a snapshot, everything else gets the tail from exactly
// its cursor. The sequence contract is strict — a snapshot's LastSeq
// names the last record it contains and the first tail record after it
// is LastSeq+1; the applier rejects any gap and resyncs.
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
	// KindHello is the follower's announcement / resync request.
	KindHello = "repl.hello"
	// KindSnapshot carries a full history + object-store handoff.
	KindSnapshot = "repl.snapshot"
	// KindRecords carries a contiguous WAL tail batch.
	KindRecords = "repl.records"
	// KindStatus is the writer's heartbeat.
	KindStatus = "repl.status"
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
	// Frames is the full retained record history, CRC-framed exactly as
	// on disk (wal.EncodeFrames / wal.Scan).
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
	// Frames holds a contiguous run of records, CRC-framed.
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

// Node is the follower's transport surface: send a frame to the writer
// by name. *transport.TCPNode implements it.
type Node interface {
	Send(to, kind string, payload []byte) error
}

// Replier is the writer's transport surface: answer a hello on the
// connection it arrived on (*transport.TCPNode, the daemon's CommandNode).
type Replier interface {
	Reply(env transport.Envelope, kind string, payload []byte) error
}

// Writer-side metric names (labels: follower=<name>).
const (
	// MetricFollowers gauges the follower streams currently registered.
	MetricFollowers = "repl_followers"
	// MetricRecordsShipped counts WAL records shipped per follower.
	MetricRecordsShipped = "repl_records_shipped_total"
	// MetricSnapshotsShipped counts snapshot handoffs per follower.
	MetricSnapshotsShipped = "repl_snapshots_shipped_total"
	// MetricHeartbeats counts status heartbeats per follower.
	MetricHeartbeats = "repl_heartbeats_total"
	// MetricShipErrors counts failed sends per follower (a shipped frame
	// is one write; the follower's resync recovers the stream).
	MetricShipErrors = "repl_ship_errors_total"
)

// Follower-side metric names.
const (
	// MetricAppliedRecords counts applied records, labeled type=<record
	// type>.
	MetricAppliedRecords = "repl_applied_records_total"
	// MetricSnapshotsInstalled counts installed snapshot handoffs.
	MetricSnapshotsInstalled = "repl_snapshots_installed_total"
	// MetricResyncs counts hello frames sent after the initial one —
	// loss, gap or silence recoveries.
	MetricResyncs = "repl_resyncs_total"
	// MetricStaleFrames counts duplicate or already-covered frames shed
	// by sequence number.
	MetricStaleFrames = "repl_stale_frames_total"
	// MetricApplyErrors counts frames rejected by CRC, boundary or
	// replay failure (the applier fails closed and resyncs).
	MetricApplyErrors = "repl_apply_errors_total"
	// MetricLastSeq gauges the follower's applied WAL sequence.
	MetricLastSeq = "repl_last_seq"
	// MetricEpoch gauges the follower's replayed epoch.
	MetricEpoch = "repl_epoch"
	// MetricWatermark gauges the follower's replayed watermark.
	MetricWatermark = "repl_watermark"
	// MetricLagRecords gauges writer head minus applied sequence — the
	// staleness the follower currently serves reads at.
	MetricLagRecords = "repl_lag_records"
)
