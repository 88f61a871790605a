// Package wal is the durable record of coalition belief state: an
// append-only, CRC-framed, fsync-batched write-ahead log plus an atomic
// snapshot for compaction, framed the same way.
//
// The paper's guarantees hinge on time-stamped distribution and
// revocation of certificates that servers "believe until revoked"
// (Section 4.3, A34–A38) — beliefs that must survive a server crash, or
// a restarted daemon silently forgets revocations and re-grants access.
// Every state-changing event (revocation, identity revocation, group
// link, re-anchoring, audit decision) is appended here as a typed record
// before it is acknowledged; on startup the records are replayed through
// the authz mutate/seal path to rebuild the published snapshot.
//
// Durability policy: appends are framed and written immediately; fsync
// is batched over a configurable window (group commit), so concurrent
// writers share one disk flush. A caller that must not acknowledge
// before the record is on stable storage passes wait=true to Append.
//
// Recovery policy: a torn final record (crash mid-append) is truncated
// with a warning — it was never acknowledged. Corruption anywhere before
// the tail fails closed with a precise offset: that data was durable
// once, and guessing around it would resurrect revoked authority.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jointadmin/internal/obs"
)

// On-disk layout inside a data directory.
const (
	// LogName is the append-only record file.
	LogName = "wal.log"
	// SnapshotName is the compacted-state file: the retained records'
	// frames, as the log stores them, written atomically.
	SnapshotName = "snapshot.wal"
)

// Metric names (registered on the injected obs.Registry).
const (
	// metricAppends counts appended records, labeled type=<record type>.
	metricAppends = "wal_append_total"
	// MetricFsyncSeconds times each log fsync.
	MetricFsyncSeconds = "wal_fsync_seconds"
	// metricReadSeconds times each ReadFrom (a tail read).
	metricReadSeconds = "wal_read_seconds"
	// metricReplayRecords counts records handed back by Open for replay,
	// labeled type=<record type>.
	metricReplayRecords = "wal_replay_records"
	// metricCompactions counts snapshot compactions.
	metricCompactions = "snapshot_compactions_total"
	// metricTornTruncations counts torn final records truncated at Open.
	metricTornTruncations = "wal_torn_truncations_total"
)

// ErrClosed indicates an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log.
type Options struct {
	// BatchWindow is the group-commit window: an append schedules one
	// fsync this far in the future and every record written before it
	// fires rides the same flush. 0 (the default) syncs on every append —
	// slowest, strongest. See docs/OPERATIONS.md for the trade-offs.
	BatchWindow time.Duration
	// NoSync disables fsync entirely (tests, throwaway demos). A crash
	// may lose acknowledged records.
	NoSync bool
	// Metrics receives the log's counters and timings; nil drops them.
	Metrics *obs.Registry
	// Logf receives recovery warnings (torn-record truncation). nil
	// discards them.
	Logf func(format string, args ...any)
}

// Log is an append-only write-ahead log bound to one data directory.
// Append is safe for concurrent use.
type Log struct {
	dir  string
	path string
	opts Options
	reg  *obs.Registry

	mu   sync.Mutex
	cond *sync.Cond // broadcast after each fsync attempt
	f    *os.File
	off  int64 // end of the valid log region
	seq  uint64
	// syncedSeq is the highest sequence number known stable; waiters on
	// Append(wait=true) block until it reaches their record.
	syncedSeq     uint64
	syncScheduled bool
	// flushTimer is the pending group-commit timer (nil when none is
	// scheduled). Close stops it so the callback cannot fire against a
	// closed file.
	flushTimer *time.Timer
	syncErr    error // sticky: after a failed fsync the log only errors
	count      int   // records across snapshot + log
	closed     bool

	// tailFloor is the lowest sequence number from which the live log
	// file is guaranteed to hold a contiguous record suffix: records at
	// or below it live only in the snapshot (or were dropped by a
	// compaction reducer). ReadFrom refuses cursors below it with
	// ErrCompacted — the caller must fall back to History.
	tailFloor uint64
	// frames indexes the live log file, one entry per frame in file
	// order: Open builds it from the frames it scans (records at or
	// below the snapshot's LastSeq a crash left in the file included),
	// Append extends it and Compact clears it. ReadFrom finds and bounds
	// its batch in it before reading a byte.
	frames []framePos
	// notify is closed (and replaced lazily) whenever records reach
	// stable storage — every fsync, every append under NoSync — waking
	// tail-followers blocked in NotifyAppend. nil until someone asks.
	notify chan struct{}
}

// Open opens (creating if needed) the write-ahead log in dir and returns
// it together with the full recovered record sequence — snapshot records
// first, then the log's — for the caller to replay. A torn final record
// of the log is truncated with a warning through Options.Logf;
// corruption in the log or the snapshot returns a *corruptError and no
// log. A directory that still holds a snapshot.json, the JSON snapshot
// of before snapshots were framed, is refused with an error naming it.
func Open(dir string, opts Options) (*Log, []Record, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	h, err := readHistory(dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	if h.log.torn != "" {
		opts.Logf("wal: torn final record in %s at offset %d (%s): truncating %d bytes",
			path, h.log.valid, h.log.torn, h.log.size-h.log.valid)
		if err := f.Truncate(h.log.valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn record: %w", err)
		}
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
			}
		}
		opts.Metrics.Counter(metricTornTruncations).Inc()
	}
	last := lastSeq(h.recs)
	l := &Log{
		dir:       dir,
		path:      path,
		opts:      opts,
		reg:       opts.Metrics,
		f:         f,
		off:       h.log.valid,
		seq:       last,
		syncedSeq: last,
		count:     len(h.recs),
		tailFloor: lastSeq(h.snap.recs),
		// The index holds every frame in the file, those a compaction cut
		// short left at or below the snapshot's last record included.
		frames: indexFrames(h.log.frames, h.log.recs),
	}
	l.cond = sync.NewCond(&l.mu)
	for _, r := range h.recs {
		l.reg.Counter(metricReplayRecords, "type", string(r.Type)).Inc()
	}
	return l, h.recs, nil
}

// Append assigns the record its sequence number, frames it, and writes
// it to the log. With wait=true it blocks until the record is on stable
// storage (its group-commit fsync completed); with wait=false it returns
// as soon as the bytes are handed to the OS, riding a later flush. The
// assigned sequence number is returned.
func (l *Log) Append(rec Record, wait bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.syncErr != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.syncErr)
	}
	rec.Seq = l.seq + 1
	frame, err := encodeFrame(rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.WriteAt(frame, l.off); err != nil {
		l.syncErr = err
		l.cond.Broadcast()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = rec.Seq
	l.frames = append(l.frames, framePos{seq: rec.Seq, off: l.off})
	l.off += int64(len(frame))
	l.count++
	l.reg.Counter(metricAppends, "type", string(rec.Type)).Inc()

	switch {
	case l.opts.NoSync:
		l.syncedSeq = l.seq
		l.wakeFollowersLocked()
	case l.opts.BatchWindow <= 0:
		l.fsyncLocked()
	default:
		if !l.syncScheduled {
			l.syncScheduled = true
			l.flushTimer = time.AfterFunc(l.opts.BatchWindow, l.flush)
		}
	}
	if wait {
		for l.syncedSeq < rec.Seq && l.syncErr == nil && !l.closed {
			l.cond.Wait()
		}
		switch {
		case l.syncErr != nil:
			return rec.Seq, fmt.Errorf("wal: fsync: %w", l.syncErr)
		case l.syncedSeq < rec.Seq:
			return rec.Seq, ErrClosed
		}
	}
	return rec.Seq, nil
}

// fsyncLocked flushes the log file and wakes every waiter, tail-followers
// included: what it flushed is now theirs to read. Called with l.mu held.
func (l *Log) fsyncLocked() {
	start := time.Now()
	err := l.f.Sync()
	l.reg.Histogram(MetricFsyncSeconds, nil).ObserveSince(start)
	if err != nil {
		l.syncErr = err
	} else {
		l.syncedSeq = l.seq
	}
	l.stopFlushTimer()
	l.cond.Broadcast()
	l.wakeFollowersLocked()
}

// stopFlushTimer cancels any pending group-commit timer and clears the
// scheduling flag. Called with l.mu held. A callback that already fired
// (Stop returns false) is safe: flush re-checks closed/synced state
// under the lock before touching the file.
func (l *Log) stopFlushTimer() {
	if l.flushTimer != nil {
		l.flushTimer.Stop()
		l.flushTimer = nil
	}
	l.syncScheduled = false
}

// flush is the group-commit timer callback.
func (l *Log) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.syncErr != nil {
		return
	}
	if l.syncedSeq < l.seq {
		l.fsyncLocked()
	} else {
		l.stopFlushTimer()
	}
}

// Close flushes pending records and closes the log file. A pending
// group-commit timer is stopped (and its flush subsumed by the close-time
// fsync) so the callback can never race the closed file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.syncErr == nil && !l.opts.NoSync && l.syncedSeq < l.seq {
		l.fsyncLocked()
	}
	l.stopFlushTimer()
	l.closed = true
	l.cond.Broadcast()
	l.wakeFollowersLocked()
	err := l.f.Close()
	if l.syncErr != nil {
		return l.syncErr
	}
	return err
}

// Empty reports whether the log holds no records at all (snapshot
// included) — a brand-new data directory awaiting its genesis record.
func (l *Log) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count == 0
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// LogBytes returns the current size of the append-only log file — the
// compaction trigger input (the snapshot is not counted).
func (l *Log) LogBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}
