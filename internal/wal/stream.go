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
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"time"
)

// ErrCompacted reports a ReadFrom cursor below the tail floor: the
// records right after it were folded into the snapshot (or dropped by
// the compaction reducer), so the live log cannot serve a contiguous
// suffix from there. Callers catch up from History instead.
var ErrCompacted = errors.New("wal: records compacted past requested sequence")

// ReadFrom returns the records with sequence numbers strictly greater
// than after, in order, from the live log, together with their frames
// exactly as the log stores them. The batch holds at most max records
// and at most maxBytes bytes of frames, but never less than the first
// record past after; max or maxBytes <= 0 leaves that bound off. It
// returns ErrCompacted when after is below the tail floor (the suffix is
// no longer contiguous in the log file) and ErrClosed on a closed log.
// An empty result with a nil error means the caller is caught up;
// follow NotifyAppend to block for more.
//
// The batch is found and bounded in the frame index before anything is
// read, and only its frames are decoded. Every other live frame is
// length- and checksum-checked, so corruption anywhere in the live log
// refuses the read with the *corruptError recovery would give.
func (l *Log) ReadFrom(after uint64, max, maxBytes int) ([]Record, []byte, error) {
	defer l.reg.Histogram(metricReadSeconds, nil).ObserveSince(time.Now())
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, ErrClosed
	}
	if after < l.tailFloor {
		return nil, nil, fmt.Errorf("%w: cursor %d below tail floor %d", ErrCompacted, after, l.tailFloor)
	}
	if after >= l.seq {
		return nil, nil, nil
	}
	first, _ := slices.BinarySearchFunc(l.frames, after+1, func(f framePos, seq uint64) int {
		return cmp.Compare(f.seq, seq)
	})
	end := first + 1
	for end < len(l.frames) && (max <= 0 || end-first < max) &&
		(maxBytes <= 0 || l.frameOff(end+1)-l.frames[first].off <= int64(maxBytes)) {
		end++
	}
	lo, hi := l.frames[first].off, l.frameOff(end)
	if err := l.checkFrames(0, first); err != nil {
		return nil, nil, err
	}
	frames := make([]byte, hi-lo)
	if _, err := l.f.ReadAt(frames, lo); err != nil {
		return nil, nil, fmt.Errorf("wal: read log tail: %w", err)
	}
	recs, _, torn, corrupt := Scan(frames)
	if corrupt != nil {
		corrupt.Path = l.path
		corrupt.Offset += lo
		return nil, nil, corrupt
	}
	if torn != "" {
		// Cannot happen: the index only ever covers fully written frames.
		return nil, nil, fmt.Errorf("wal: log tail torn during read: %s", torn)
	}
	for i := first; i < end; i++ {
		if k := i - first; k >= len(recs) || recs[k].Seq != l.frames[i].seq {
			return nil, nil, &corruptError{Path: l.path, Offset: l.frames[i].off,
				Reason: fmt.Sprintf("frame does not hold indexed record %d", l.frames[i].seq)}
		}
	}
	if err := l.checkFrames(end, len(l.frames)); err != nil {
		return nil, nil, err
	}
	return recs, frames, nil
}

// framePos is one frame of the live log in the frame index: the
// sequence number of its record and its byte offset in the file.
type framePos struct {
	seq uint64
	off int64
}

// indexFrames indexes a log file's frames, each beside its record.
func indexFrames(frames [][]byte, recs []Record) []framePos {
	idx := make([]framePos, len(recs))
	var off int64
	for i, r := range recs {
		idx[i] = framePos{seq: r.Seq, off: off}
		off += int64(len(frames[i]))
	}
	return idx
}

// frameOff returns the file offset of indexed frame i, or the end of
// the live log for i = len(l.frames). Called with l.mu held.
func (l *Log) frameOff(i int) int64 {
	if i == len(l.frames) {
		return l.off
	}
	return l.frames[i].off
}

// sweepBufBytes is the read buffer of the checksum sweep: large enough
// that reading, not the read calls, is its cost.
const sweepBufBytes = 32 << 10

// sweepReaders holds the sweep's buffered readers. A pool, so a log
// that is not being read holds no buffer.
var sweepReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, sweepBufBytes) }}

// checkFrames length- and checksum-checks indexed frames [i, j) without
// decoding them, reading the file once through the sweep buffer. Called
// with l.mu held.
func (l *Log) checkFrames(i, j int) error {
	if i == j {
		return nil
	}
	r := sweepReaders.Get().(*bufio.Reader)
	defer sweepReaders.Put(r)
	r.Reset(io.NewSectionReader(l.f, l.frames[i].off, l.frameOff(j)-l.frames[i].off))
	for ; i < j; i++ {
		off := l.frames[i].off
		hdr, err := r.Peek(headerSize)
		if err != nil {
			return fmt.Errorf("wal: read log frame at offset %d: %w", off, err)
		}
		length, stored := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
		if want := l.frameOff(i+1) - off - headerSize; int64(length) != want {
			return &corruptError{Path: l.path, Offset: off,
				Reason: fmt.Sprintf("record length %d where the index holds %d", length, want)}
		}
		r.Discard(headerSize)
		var crc uint32
		for n := int(length); n > 0; {
			b, err := r.Peek(min(n, r.Size()))
			if err != nil {
				return fmt.Errorf("wal: read log frame at offset %d: %w", off, err)
			}
			crc = crc32.Update(crc, crcTable, b)
			r.Discard(len(b))
			n -= len(b)
		}
		if crc != stored {
			ce := badChecksum(off, stored, crc)
			ce.Path = l.path
			return ce
		}
	}
	return nil
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
	h, err := readHistory(l.dir)
	if err != nil {
		return nil, 0, err
	}
	return h.recs, l.seq, nil
}

// HistoryFrames returns the records keep selects from the retained
// history (nil keeps them all; keep's contract is Compact's reduce's),
// their frames end to end exactly as the snapshot and the log store
// them, and the head sequence number, as History does. The replication
// shipper's snapshot handoff ships these frames, so every shipped record
// carries the checksum it was written with: damage in transit (or a
// buggy peer) surfaces as a *corruptError at the applier's Scan, which
// fails closed exactly like corruption at recovery.
func (l *Log) HistoryFrames(keep func([]Record) []Record) ([]Record, []byte, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, 0, ErrClosed
	}
	h, err := readHistory(l.dir)
	if err != nil {
		return nil, nil, 0, err
	}
	recs, frames, err := h.keep(keep)
	if err != nil {
		return nil, nil, 0, err
	}
	return recs, frames, l.seq, nil
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
