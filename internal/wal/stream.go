// Tail-follow/stream API for the replication shipper: bounded reads of
// the live log past a cursor, the full retained history for snapshot
// handoff, and an append notification channel so a follower stream can
// block until there is something new to ship.
//
// The sequence-number contract is strict and pinned by tests: a cursor
// (or a shipped snapshot's LastSeq) names the last record the consumer
// already holds, and the next shipped record is exactly cursor+1. Both
// off-by-one directions are wrong — shipping record `cursor` again
// re-applies a mutation, skipping to cursor+2 silently drops one.

package wal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// ErrCompacted reports a ReadFrom cursor below the tail floor: the
// records right after it were folded into the snapshot (or dropped by
// the compaction reducer), so the live log cannot serve a contiguous
// suffix from there. Callers catch up from History instead.
var ErrCompacted = errors.New("wal: records compacted past requested sequence")

// ReadFrom returns up to max records with sequence numbers strictly
// greater than after, in order, from the live log. It returns
// ErrCompacted when after is below the tail floor (the suffix is no
// longer contiguous in the log file) and ErrClosed on a closed log. An
// empty result with a nil error means the caller is caught up; follow
// NotifyAppend to block for more. max <= 0 means no bound.
func (l *Log) ReadFrom(after uint64, max int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if after < l.tailFloor {
		return nil, fmt.Errorf("%w: cursor %d below tail floor %d", ErrCompacted, after, l.tailFloor)
	}
	if after >= l.seq {
		return nil, nil
	}
	data := make([]byte, l.off)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("wal: read log tail: %w", err)
	}
	recs, _, torn, corrupt := Scan(data)
	if corrupt != nil {
		corrupt.Path = l.path
		return nil, corrupt
	}
	if torn != "" {
		// Cannot happen: l.off only ever covers fully written frames.
		return nil, fmt.Errorf("wal: log tail torn during read: %s", torn)
	}
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Seq <= after {
			continue
		}
		out = append(out, r)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out, nil
}

// History returns the full retained record sequence — snapshot records
// followed by the live log's — exactly what a fresh consumer must replay
// to reach the log's head. The second result is the head sequence
// number; the first shipped tail record after a History bootstrap is
// head+1.
func (l *Log) History() ([]Record, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	snap, err := loadSnapshot(filepath.Join(l.dir, SnapshotName))
	if err != nil {
		return nil, 0, err
	}
	data := make([]byte, l.off)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return nil, 0, fmt.Errorf("wal: read log for history: %w", err)
	}
	logRecs, _, _, corrupt := Scan(data)
	if corrupt != nil {
		corrupt.Path = l.path
		return nil, 0, corrupt
	}
	all := make([]Record, 0, len(snap.Records)+len(logRecs))
	all = append(all, snap.Records...)
	for _, r := range logRecs {
		if r.Seq > snap.LastSeq {
			all = append(all, r)
		}
	}
	return all, l.seq, nil
}

// NotifyAppend returns a channel that is closed by the next Append (or
// by Close). The tail-follow pattern is: grab the channel, ReadFrom; if
// that returned nothing, block on the channel and retry. Grabbing before
// reading closes the race where a record lands between the empty read
// and the wait.
func (l *Log) NotifyAppend() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// wakeFollowersLocked releases everyone blocked on NotifyAppend. Called
// with l.mu held, on append and close.
func (l *Log) wakeFollowersLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// EncodeFrames renders records in the log's CRC-framed wire format — the
// same encoding Scan decodes and verifies. The replication shipper uses
// it so shipped batches carry the log's own integrity protection:
// corruption in transit (or a buggy peer) surfaces as a *corruptError at
// the applier, which fails closed exactly like mid-log corruption at
// recovery.
func EncodeFrames(recs []Record) ([]byte, error) {
	var out []byte
	for _, r := range recs {
		frame, err := encodeFrame(r)
		if err != nil {
			return nil, err
		}
		out = append(out, frame...)
	}
	return out, nil
}
