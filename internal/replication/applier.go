// Follower side: the Applier consumes shipped frames, installs snapshot
// handoffs as whole replicas (authz.NewReplica), advances the current
// replica with contiguous tail batches (authz.ApplyReplicated), and
// fails closed on anything suspect — CRC damage, a sequence gap, a
// boundary mismatch, a replay error — by discarding the frame and
// resyncing from the writer. The replica is swapped atomically, so the
// follower daemon's Authorize path reads a consistent belief state
// lock-free while frames apply. A snapshot that decodes but does not
// install asks for nothing at once: the writer would ship the same
// history straight back, so the next heartbeat (head ahead of the
// cursor) or the silence tick asks again.

package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/wal"
)

// ApplierOptions configures the follower side.
type ApplierOptions struct {
	// Follower is this node's name (the writer addresses frames to it).
	Follower string
	// Writer is the writer node's name (hello frames go to it).
	Writer string
	// ResyncAfter is the silence threshold: no frame for this long and
	// the applier re-hellos (default 3s — cover a writer restart within
	// a few heartbeats).
	ResyncAfter time.Duration
	// AuditRetention caps each replica's in-memory audit log (0 keeps
	// everything).
	AuditRetention int
	// Metrics receives the applier's counters and lag gauges; nil drops
	// them.
	Metrics *obs.Registry
	// Logf receives apply warnings; nil discards them.
	Logf func(format string, args ...any)
}

// replica is the follower's current read-only serving state.
type replica struct {
	// Srv is the replayed authorization server; Authorize on it serves
	// reads at the replica's watermark.
	Srv *authz.Server
	// Objects and Audit are the replica's object store and local audit
	// log (decisions made on this follower land here, not on the
	// writer).
	Objects *acl.Store
	Audit   *audit.Log
	// clk is the replica's logical clock; every frame advances it
	// (monotonically) toward the writer's shipped time so certificate
	// validity evaluates in the writer's time frame.
	clk *clock.Clock
}

// Status is the follower's replication position, served by the
// `replstatus` command.
type Status struct {
	// Ready reports whether a replica is installed and serving.
	Ready bool `json:"ready"`
	// LastSeq is the highest applied WAL sequence; Head is the writer's
	// last advertised head; Lag is Head−LastSeq (0 when caught up).
	LastSeq uint64 `json:"lastSeq"`
	Head    uint64 `json:"head"`
	Lag     uint64 `json:"lag"`
	// Epoch and Watermark are the replica's replayed versions.
	Epoch     uint64 `json:"epoch"`
	Watermark uint64 `json:"watermark"`
	// Snapshots and Resyncs count installs and recovery hellos.
	Snapshots uint64 `json:"snapshots"`
	Resyncs   uint64 `json:"resyncs"`
	// Clock is the replica's logical clock. It trails the writer's by up
	// to one heartbeat; a certificate issued at the writer's current
	// time is not believable here until Clock catches up.
	Clock clock.Time `json:"clock"`
	// LastError is why the applier last rejected a frame ("" if it never
	// has); each rejection also counts in repl_apply_errors_total under
	// its reason.
	LastError string `json:"lastError,omitempty"`
}

// Applier is the follower-side protocol endpoint. Feed it every
// "repl.*" envelope via Handle (from one goroutine — the daemon's recv
// loop); Run drives the hello/resync timer.
type Applier struct {
	node node
	opts ApplierOptions
	reg  *obs.Registry

	replica atomic.Pointer[replica]

	mu        sync.Mutex
	lastSeq   uint64
	head      uint64
	epoch     uint64
	watermark uint64
	snapshots uint64
	resyncs   uint64
	lastFrame time.Time
	helloed   bool
	lastErr   string
}

// NewApplier builds the follower endpoint; node must already know the
// writer's address.
func NewApplier(node node, opts ApplierOptions) *Applier {
	if opts.ResyncAfter <= 0 {
		opts.ResyncAfter = 3 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Writer == "" {
		opts.Writer = "coalitiond"
	}
	return &Applier{node: node, opts: opts, reg: opts.Metrics}
}

// Replica returns the current serving state, nil before the first
// snapshot installs.
func (a *Applier) Replica() *replica { return a.replica.Load() }

// Status reports the applier's position.
func (a *Applier) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		LastSeq:   a.lastSeq,
		Head:      a.head,
		Epoch:     a.epoch,
		Watermark: a.watermark,
		Snapshots: a.snapshots,
		Resyncs:   a.resyncs,
		LastError: a.lastErr,
	}
	if rep := a.replica.Load(); rep != nil {
		st.Ready = true
		st.Clock = rep.clk.Now()
	}
	if st.Head > st.LastSeq {
		st.Lag = st.Head - st.LastSeq
	}
	return st
}

// Run sends the initial hello and re-hellos whenever the writer goes
// silent for ResyncAfter (covers dropped frames with no follow-on
// traffic, and writer restarts). It returns when ctx is done.
func (a *Applier) Run(ctx context.Context) {
	a.hello(false)
	tick := time.NewTicker(a.opts.ResyncAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			a.mu.Lock()
			silent := time.Since(a.lastFrame) > a.opts.ResyncAfter
			a.mu.Unlock()
			if silent {
				a.hello(true)
			}
		}
	}
}

// hello announces the follower's cursor to the writer; resync marks it
// as a recovery (counted) rather than the initial announcement. A
// follower without a replica always asks for a full snapshot — tail
// records never carry the object store.
func (a *Applier) hello(resync bool) {
	a.mu.Lock()
	full := a.replica.Load() == nil
	h := helloMsg{Follower: a.opts.Follower, LastSeq: a.lastSeq, Full: full}
	if resync && a.helloed {
		a.resyncs++
		a.reg.Counter(metricResyncs).Inc()
	}
	a.helloed = true
	a.mu.Unlock()
	body, err := json.Marshal(h)
	if err != nil {
		a.opts.Logf("replication: encode hello: %v", err)
		return
	}
	if err := a.node.Send(a.opts.Writer, kindHello, body); err != nil {
		a.opts.Logf("replication: hello to %s: %v", a.opts.Writer, err)
	}
}

// Handle applies one replication frame. Call from a single goroutine;
// Authorize readers are isolated via the atomic replica pointer.
func (a *Applier) Handle(kind string, payload []byte) {
	switch kind {
	case kindSnapshot:
		var msg snapshotMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			a.applyError(reasonDecode, "decode snapshot: %v", err)
			return
		}
		a.applySnapshot(msg)
	case kindRecords:
		var msg recordsMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			a.applyError(reasonDecode, "decode records: %v", err)
			return
		}
		a.applyRecords(msg)
	case kindStatus:
		var msg statusMsg
		if err := json.Unmarshal(payload, &msg); err != nil {
			a.applyError(reasonDecode, "decode status: %v", err)
			return
		}
		a.applyStatus(msg)
	default:
		a.opts.Logf("replication: follower ignoring frame kind %s", kind)
	}
}

// applySnapshot installs a full replica from a snapshot handoff.
func (a *Applier) applySnapshot(msg snapshotMsg) {
	a.touch()
	a.mu.Lock()
	stale := a.replica.Load() != nil && msg.LastSeq <= a.lastSeq
	a.mu.Unlock()
	if stale {
		// A duplicated or delayed handoff we have already passed.
		a.reg.Counter(metricStaleFrames).Inc()
		return
	}
	recs, ok := a.decodeFrames(msg.Frames, "snapshot")
	if !ok {
		return
	}
	if n := len(recs); n == 0 || recs[n-1].Seq != msg.LastSeq {
		// Boundary mismatch: the handoff must contain exactly the records
		// through its declared LastSeq, or the next tail record would not
		// be LastSeq+1.
		a.applyError(reasonBoundary, "snapshot boundary: %d records, declared last seq %d", len(recs), msg.LastSeq)
		return
	}
	clk := clock.New(msg.Clock)
	store := acl.NewStore(clk)
	if err := store.Import(msg.Objects, a.opts.Follower); err != nil {
		a.applyError(reasonObjects, "import objects: %v", err)
		return
	}
	alog := audit.NewLog()
	if a.opts.AuditRetention > 0 {
		alog.SetRetention(a.opts.AuditRetention, nil)
	}
	srv, rep, err := authz.NewReplica(a.opts.Follower, clk, store, alog, recs)
	if err != nil {
		a.applyError(reasonInstall, "install snapshot: %v", err)
		return
	}
	srv.Instrument(a.reg)
	a.replica.Store(&replica{Srv: srv, Objects: store, Audit: alog, clk: clk})
	a.mu.Lock()
	a.lastSeq = msg.LastSeq
	a.head = max64(msg.Head, msg.LastSeq)
	a.epoch, a.watermark = rep.Epoch, rep.Watermark
	a.snapshots++
	a.mu.Unlock()
	a.reg.Counter(MetricSnapshotsInstalled).Inc()
	a.countApplied(recs)
	a.publishGauges()
	a.opts.Logf("replication: installed snapshot through seq %d (%s)", msg.LastSeq, rep)
}

// applyRecords advances the replica by a contiguous tail batch.
func (a *Applier) applyRecords(msg recordsMsg) {
	a.touch()
	rep := a.replica.Load()
	if rep == nil {
		// Records before any snapshot: we cannot serve without the object
		// store, so ask for the full handoff.
		a.reg.Counter(metricStaleFrames).Inc()
		a.hello(true)
		return
	}
	rep.clk.AdvanceTo(msg.Clock)
	recs, ok := a.decodeFrames(msg.Frames, "records")
	if !ok {
		return
	}
	a.mu.Lock()
	last := a.lastSeq
	a.mu.Unlock()
	// Shed the already-applied prefix (duplicated or delayed frames).
	for len(recs) > 0 && recs[0].Seq <= last {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		a.reg.Counter(metricStaleFrames).Inc()
		a.updateHead(msg.Head)
		return
	}
	if recs[0].Seq != last+1 {
		// A gap: something between last and this batch was lost.
		a.applyError(reasonGap, "gap after seq %d (next shipped %d), resyncing", last, recs[0].Seq)
		a.hello(true)
		return
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			a.applyError(reasonOrder, "non-contiguous batch: seq %d after %d", recs[i].Seq, recs[i-1].Seq)
			a.hello(true)
			return
		}
	}
	report, err := rep.Srv.ApplyReplicated(recs)
	if err != nil {
		// A half-applied batch leaves the replica suspect; rebuild it
		// from a fresh snapshot rather than serve doubtful beliefs.
		a.applyError(reasonApply, "apply batch at seq %d: %v", recs[0].Seq, err)
		a.replica.Store(nil)
		a.hello(true)
		return
	}
	a.mu.Lock()
	a.lastSeq = recs[len(recs)-1].Seq
	a.head = max64(msg.Head, a.lastSeq)
	a.epoch, a.watermark = report.Epoch, report.Watermark
	a.mu.Unlock()
	a.countApplied(recs)
	a.publishGauges()
}

// applyStatus ingests a heartbeat: refresh the lag gauges and resync if
// the writer's head has moved past us without records arriving.
func (a *Applier) applyStatus(msg statusMsg) {
	a.touch()
	if rep := a.replica.Load(); rep != nil {
		rep.clk.AdvanceTo(msg.Clock)
	}
	a.updateHead(msg.Head)
	a.mu.Lock()
	behind := msg.Head > a.lastSeq
	a.mu.Unlock()
	if behind {
		a.hello(true)
	}
}

// decodeFrames CRC-decodes shipped frames, failing closed (and
// resyncing) on damage — a torn or corrupt shipped batch is treated
// exactly like mid-log corruption at recovery.
func (a *Applier) decodeFrames(frames []byte, what string) ([]wal.Record, bool) {
	recs, _, torn, corrupt := wal.Scan(frames)
	if corrupt != nil {
		a.applyError(reasonCorrupt, "corrupt shipped %s: %v", what, corrupt)
		a.hello(true)
		return nil, false
	}
	if torn != "" {
		a.applyError(reasonTorn, "truncated shipped %s: %s", what, torn)
		a.hello(true)
		return nil, false
	}
	return recs, true
}

// touch records frame arrival for the silence detector.
func (a *Applier) touch() {
	a.mu.Lock()
	a.lastFrame = time.Now()
	a.mu.Unlock()
}

// updateHead advances the writer-head estimate and republishes lag.
func (a *Applier) updateHead(head uint64) {
	a.mu.Lock()
	if head > a.head {
		a.head = head
	}
	a.mu.Unlock()
	a.publishGauges()
}

// countApplied tallies applied records per type.
func (a *Applier) countApplied(recs []wal.Record) {
	for _, r := range recs {
		a.reg.Counter(metricAppliedRecords, "type", string(r.Type)).Inc()
	}
}

// publishGauges exports the follower's position: applied sequence,
// epoch, watermark and records of lag behind the writer's head.
func (a *Applier) publishGauges() {
	a.mu.Lock()
	lastSeq, head, epoch, watermark := a.lastSeq, a.head, a.epoch, a.watermark
	a.mu.Unlock()
	a.reg.Gauge(metricLastSeq).Set(int64(lastSeq))
	a.reg.Gauge(metricEpoch).Set(int64(epoch))
	a.reg.Gauge(metricWatermark).Set(int64(watermark))
	var lag uint64
	if head > lastSeq {
		lag = head - lastSeq
	}
	a.reg.Gauge(metricLagRecords).Set(int64(lag))
}

// The reasons a frame is rejected for, one per check: the reason label
// of repl_apply_errors_total.
const (
	reasonDecode   = "decode"   // a frame's envelope does not decode
	reasonBoundary = "boundary" // a snapshot's records do not end at its LastSeq
	reasonObjects  = "objects"  // a snapshot's object store does not import
	reasonInstall  = "install"  // a snapshot's records do not build a replica
	reasonGap      = "gap"      // a batch does not start right after the replica
	reasonOrder    = "order"    // a batch's records are not contiguous
	reasonApply    = "apply"    // a batch does not apply to the replica
	reasonCorrupt  = "corrupt"  // a shipped frame fails its CRC
	reasonTorn     = "torn"     // shipped frames end mid-frame
)

// applyError logs a rejected frame, counts it under its reason (one of
// the reason constants), and keeps its message for Status.
func (a *Applier) applyError(reason, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	a.opts.Logf("replication: %s", msg)
	a.reg.Counter(metricApplyErrors, "reason", reason).Inc()
	a.mu.Lock()
	a.lastErr = msg
	a.mu.Unlock()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
