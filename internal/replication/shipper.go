// Writer side: one shipper per daemon, one stream goroutine per
// follower. Each stream tail-follows the WAL from its follower's cursor
// and pushes records as they land, falling back to a snapshot handoff
// when the cursor predates the compaction floor (wal.ErrCompacted), the
// follower asked for one, or the periodic snapshot refresh is due (that
// refresh is also what converges follower object content — writes are
// not belief mutations and never enter the WAL).

package replication

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// ShipperOptions configures the writer side.
type ShipperOptions struct {
	// Batch bounds records per shipped frame (default 64).
	Batch int
	// Heartbeat is the idle status interval; a stream with nothing to
	// ship sends the writer's head/epoch/watermark this often (default
	// 1s). The documented staleness bound is Heartbeat plus the
	// follower's resync threshold.
	Heartbeat time.Duration
	// SnapshotEvery re-ships a full snapshot after this many records per
	// follower (default 4096), refreshing follower object content.
	SnapshotEvery int
	// State reports the writer's live epoch and watermark (for status
	// and snapshot frames).
	State func() (epoch, watermark uint64)
	// Now reports the writer's logical clock; shipped in every frame so
	// followers evaluate certificate validity at the writer's time frame
	// (a follower clock behind the writer's would reject certificates
	// issued "in its future"). Nil ships zero, which never advances a
	// follower clock.
	Now func() clock.Time
	// Objects exports the writer's object store for snapshot frames.
	Objects func() ([]acl.ObjectState, error)
	// Metrics receives the shipper's counters and gauges; nil drops
	// them.
	Metrics *obs.Registry
	// Logf receives stream warnings; nil discards them.
	Logf func(format string, args ...any)
}

// shipper streams the WAL to registered followers. Create one per
// writer with NewShipper, feed it every "repl.*" envelope via Handle,
// and Close it when serving stops.
type shipper struct {
	log  *wal.Log
	node replier
	opts ShipperOptions
	reg  *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	streams map[string]*stream
}

// stream is one follower's shipping state.
type stream struct {
	follower string
	// hello delivers the latest resync request; capacity 1, newest wins.
	hello chan helloMsg
	// to is the latest hello run took up; every frame answers it.
	to transport.Envelope
}

// NewShipper builds the writer-side shipper over an open WAL and a
// reply-capable node (the daemon's own command node).
func NewShipper(log *wal.Log, node replier, opts ShipperOptions) *shipper {
	if opts.Batch <= 0 {
		opts.Batch = 64
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 4096
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &shipper{log: log, node: node, opts: opts, reg: opts.Metrics,
		streams: map[string]*stream{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Handle routes one replication envelope (the writer only receives
// hello frames). Unknown or undecodable frames are logged and dropped —
// a confused follower resyncs on its own.
func (s *shipper) Handle(env transport.Envelope) {
	if env.Kind != kindHello {
		s.opts.Logf("replication: writer ignoring frame kind %s", env.Kind)
		return
	}
	var h helloMsg
	if err := json.Unmarshal(env.Payload, &h); err != nil || h.Follower == "" {
		s.opts.Logf("replication: bad hello: %v", err)
		return
	}
	h.env = env
	s.mu.Lock()
	st, ok := s.streams[h.Follower]
	if !ok {
		st = &stream{follower: h.Follower, hello: make(chan helloMsg, 1)}
		s.streams[h.Follower] = st
		s.reg.Gauge(metricFollowers).Set(int64(len(s.streams)))
		s.wg.Add(1)
		go s.run(st)
	}
	s.mu.Unlock()
	// Newest hello wins: drain a stale pending one, then deliver. The
	// drain/send loop never blocks the caller (the daemon's recv loop) —
	// capacity is 1 and each failed send frees a slot first.
	for {
		select {
		case st.hello <- h:
			return
		default:
			select {
			case <-st.hello:
			default:
			}
		}
	}
}

// Close stops every stream and waits for them to exit.
func (s *shipper) Close() {
	s.cancel()
	s.wg.Wait()
}

// run is one follower's stream loop: resolve the latest hello into a
// cursor (snapshot or tail), then follow the log, heartbeating when
// idle.
func (s *shipper) run(st *stream) {
	defer s.wg.Done()
	var (
		cursor        uint64 // last sequence the follower holds
		sinceSnapshot int    // records shipped since the last snapshot
		started       bool   // a hello has established the cursor
	)
	for {
		select {
		case <-s.ctx.Done():
			return
		case h := <-st.hello:
			st.to = h.env
			cursor = h.LastSeq
			started = true
			if h.Full || cursor > s.log.Seq() {
				// Fresh follower, or one ahead of this writer's history
				// (a writer that lost its data dir): re-base from a
				// full snapshot.
				if next, ok := s.sendSnapshot(st); ok {
					cursor, sinceSnapshot = next, 0
				} else {
					s.sleep(s.opts.Heartbeat)
				}
			}
			continue
		default:
		}
		if !started {
			// No follower cursor yet; block for the first hello.
			select {
			case <-s.ctx.Done():
				return
			case h := <-st.hello:
				// Requeue for the top-of-loop handler; if a newer hello
				// raced in, it wins.
				select {
				case st.hello <- h:
				default:
				}
			}
			continue
		}
		if sinceSnapshot >= s.opts.SnapshotEvery {
			if next, ok := s.sendSnapshot(st); ok {
				cursor = next
			} else {
				s.sleep(s.opts.Heartbeat)
			}
			sinceSnapshot = 0
			continue
		}
		notify := s.log.NotifyAppend()
		recs, frames, err := s.log.ReadFrom(cursor, s.opts.Batch, tailBatchBytes)
		switch {
		case errors.Is(err, wal.ErrCompacted):
			// The tail past the cursor was folded into the snapshot.
			if next, ok := s.sendSnapshot(st); ok {
				cursor, sinceSnapshot = next, 0
			} else {
				s.sleep(s.opts.Heartbeat)
			}
			continue
		case errors.Is(err, wal.ErrClosed):
			return
		case err != nil:
			s.opts.Logf("replication: read tail for %s: %v", st.follower, err)
			s.sleep(s.opts.Heartbeat)
			continue
		}
		if len(recs) > 0 {
			if s.sendRecords(st, len(recs), frames) {
				cursor = recs[len(recs)-1].Seq
				sinceSnapshot += len(recs)
			} else {
				s.sleep(s.opts.Heartbeat)
			}
			continue
		}
		// Caught up: wait for an append, a resync, or the heartbeat.
		select {
		case <-s.ctx.Done():
			return
		case h := <-st.hello:
			select {
			case st.hello <- h:
			default:
			}
		case <-notify:
		case <-time.After(s.opts.Heartbeat):
			s.sendStatus(st)
		}
	}
}

// handoffAuditBytes bounds the audit-record bodies one snapshot handoff
// carries. A writer journals an audit record of a few KB per decision,
// so its whole history outgrows the transport's 16 MiB frame limit
// after a few thousand decisions, and no follower could install it
// again. 4 MiB of bodies is under 6 MB once base64-encoded in the frame.
const handoffAuditBytes = 4 << 20

// handoff is what a snapshot handoff ships of a history (a state prefix,
// wal.StateStart): every state record, the newest audit records whose
// bodies fit in handoffAuditBytes, and always the last record, so the
// handoff ends at the history's last sequence. Older decisions stay in
// the writer's WAL and audit log.
func handoff(recs []wal.Record) []wal.Record {
	out := make([]wal.Record, 0, len(recs))
	budget := handoffAuditBytes
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type == wal.TypeAudit && i < len(recs)-1 {
			if budget -= len(recs[i].Body); budget < 0 {
				continue
			}
		}
		out = append(out, recs[i])
	}
	slices.Reverse(out)
	return out
}

// tailBatchBytes bounds the frames one tail batch carries (the byte
// bound of wal.Log.ReadFrom), as handoffAuditBytes bounds a handoff:
// Batch records of a few hundred KB each would outgrow the transport's
// 16 MiB frame limit, and the same batch would be read and refused
// again on every retry. 8 MiB of frames is under 11 MiB once
// base64-encoded in the frame.
const tailBatchBytes = 8 << 20

// sendSnapshot ships the retained history's handoff + object store and,
// on success, returns the follower's new cursor (the snapshot's last
// sequence). A failed send still advances the cursor — the follower's
// silence-triggered hello re-bases the stream — but a failure to even
// capture the history does not.
func (s *shipper) sendSnapshot(st *stream) (uint64, bool) {
	recs, frames, head, err := s.log.HistoryFrames(handoff)
	if err != nil {
		s.opts.Logf("replication: history for %s: %v", st.follower, err)
		return 0, false
	}
	var objs []acl.ObjectState
	if s.opts.Objects != nil {
		if objs, err = s.opts.Objects(); err != nil {
			s.opts.Logf("replication: export objects for %s: %v", st.follower, err)
			return 0, false
		}
	}
	var lastSeq uint64
	if n := len(recs); n > 0 {
		lastSeq = recs[n-1].Seq
	}
	epoch, watermark := s.state()
	msg := snapshotMsg{Frames: frames, LastSeq: lastSeq, Objects: objs,
		Head: head, Epoch: epoch, Watermark: watermark, Clock: s.now()}
	if s.send(st, kindSnapshot, msg) {
		s.reg.Counter(metricSnapshotsShipped, "follower", st.follower).Inc()
	}
	return lastSeq, true
}

// sendRecords ships one contiguous tail batch of n records: their frames
// as the log stores them, which wal.Log.ReadFrom bounds by
// tailBatchBytes but never below the first record (one too large for a
// frame on its own fails its send, counted in repl_ship_errors_total).
func (s *shipper) sendRecords(st *stream, n int, frames []byte) bool {
	if !s.send(st, kindRecords, recordsMsg{Frames: frames, Head: s.log.Seq(), Clock: s.now()}) {
		return false
	}
	s.reg.Counter(metricRecordsShipped, "follower", st.follower).Add(int64(n))
	return true
}

// sendStatus ships the idle heartbeat.
func (s *shipper) sendStatus(st *stream) {
	epoch, watermark := s.state()
	if s.send(st, kindStatus, statusMsg{Head: s.log.Seq(), Epoch: epoch, Watermark: watermark, Clock: s.now()}) {
		s.reg.Counter(metricHeartbeats, "follower", st.follower).Inc()
	}
}

// send marshals one frame and writes it on the connection of the
// stream's latest hello; failures are counted, logged and reported to
// the caller.
func (s *shipper) send(st *stream, kind string, msg any) bool {
	body, err := json.Marshal(msg)
	if err != nil {
		s.opts.Logf("replication: encode %s for %s: %v", kind, st.follower, err)
		return false
	}
	if err := s.node.Reply(st.to, kind, body); err != nil {
		s.reg.Counter(metricShipErrors, "follower", st.follower).Inc()
		s.opts.Logf("replication: send %s to %s: %v", kind, st.follower, err)
		return false
	}
	return true
}

// state reports the writer's live versions, zero when unconfigured.
func (s *shipper) state() (uint64, uint64) {
	if s.opts.State == nil {
		return 0, 0
	}
	return s.opts.State()
}

// now reports the writer's logical time, zero when unconfigured.
func (s *shipper) now() clock.Time {
	if s.opts.Now == nil {
		return 0
	}
	return s.opts.Now()
}

// sleep waits d or until Close.
func (s *shipper) sleep(d time.Duration) {
	select {
	case <-s.ctx.Done():
	case <-time.After(d):
	}
}
