// Snapshot persistence, log compaction, and the one reader of a data
// directory's retained history.
//
// A snapshot is the compacted prefix of the record sequence, stored the
// way the log stores records: the retained records' CRC-framed frames,
// copied as stored and never re-encoded, so Scan checks every one of
// them as it checks the log's. It is replaced atomically: the new
// snapshot is written to a temporary file, fsynced, renamed over the old
// one, and the directory is fsynced. A crash during compaction therefore
// leaves either the old snapshot (rename not reached) or the new one,
// and a torn snapshot is corruption, not a crash's leftover. The
// snapshot's last sequence number is its last record's, always the
// log's head at compaction; log records at or below it are leftovers of
// a compaction cut short before the log's truncation, skipped by their
// sequence numbers.

package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// segment is one file of a data directory as Scan read it.
type segment struct {
	recs   []Record
	frames [][]byte // frames[i] is recs[i]'s frame as stored
	size   int64    // the file's length
	valid  int64    // end of the valid prefix
	torn   string   // why the file ends in a partial frame; "" if it does not
}

// readSegment reads and scans the file at path; a missing file is an
// empty segment. Corruption returns a *corruptError naming the file,
// with the segment read before it.
func readSegment(path string) (segment, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return segment{}, nil
	}
	if err != nil {
		return segment{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	s := segment{size: int64(len(data))}
	var corrupt *corruptError
	s.recs, s.valid, s.torn, corrupt = Scan(data)
	s.frames = make([][]byte, len(s.recs))
	for i, off := 0, 0; i < len(s.recs); i++ {
		end := off + headerSize + int(binary.LittleEndian.Uint32(data[off:]))
		s.frames[i] = data[off:end:end]
		off = end
	}
	if corrupt != nil {
		corrupt.Path = path
		return s, corrupt
	}
	return s, nil
}

// history is a data directory's retained record sequence: the snapshot's
// records, then the log's records past the snapshot's last sequence
// number, each beside its frame as stored.
type history struct {
	snap, log segment
	recs      []Record
	frames    [][]byte
}

// readHistory reads dir's retained history: Open, Compact, History,
// HistoryFrames and Dump all read a data directory through it. Corruption
// in either file, a torn snapshot included (it is written whole or not
// at all), returns a *corruptError naming the file, with the history read
// before it. A torn log tail is left in h.log.torn for the caller.
func readHistory(dir string) (h history, err error) {
	// snapshot.json is the snapshot of before snapshots were framed: a
	// JSON document without checksums, refused rather than migrated.
	old := filepath.Join(dir, "snapshot.json")
	if _, err := os.Stat(old); err == nil {
		return h, fmt.Errorf("wal: %s is a snapshot in the format before CRC-framed snapshots, which this build does not read; "+
			"recover from a fresh data directory (docs/OPERATIONS.md)", old)
	}
	path := filepath.Join(dir, SnapshotName)
	h.snap, err = readSegment(path)
	h.recs, h.frames = h.snap.recs, h.snap.frames
	if err != nil {
		return h, err
	}
	if h.snap.torn != "" {
		return h, &corruptError{Path: path, Offset: h.snap.valid, Reason: "torn snapshot: " + h.snap.torn}
	}
	floor := lastSeq(h.snap.recs)
	h.log, err = readSegment(filepath.Join(dir, LogName))
	for i, r := range h.log.recs {
		if r.Seq > floor {
			h.recs = append(h.recs, r)
			h.frames = append(h.frames, h.log.frames[i])
		}
	}
	return h, err
}

// lastSeq is the sequence number of the last of recs, 0 for none.
func lastSeq(recs []Record) uint64 {
	if n := len(recs); n > 0 {
		return recs[n-1].Seq
	}
	return 0
}

// keep applies reduce (nil keeps everything) to a copy of the retained
// records and returns the records it kept with their frames as stored,
// end to end. reduce must return records of its argument in their order;
// they are matched by Seq, and any other field it changes is not stored.
func (h history) keep(reduce func([]Record) []Record) ([]Record, []byte, error) {
	kept := h.recs
	if reduce != nil {
		kept = reduce(slices.Clone(h.recs))
	}
	idx := make([]int, 0, len(kept))
	size, i := 0, 0
	for _, r := range kept {
		for i < len(h.recs) && h.recs[i].Seq < r.Seq {
			i++
		}
		if i == len(h.recs) || h.recs[i].Seq != r.Seq {
			return nil, nil, fmt.Errorf("wal: kept record %d is not a retained record in sequence order", r.Seq)
		}
		idx = append(idx, i)
		size += len(h.frames[i])
		i++
	}
	frames := make([]byte, 0, size)
	for _, i := range idx {
		frames = append(frames, h.frames[i]...)
	}
	return kept, frames, nil
}

// saveSnapshot writes a snapshot's frames atomically (temp file + fsync
// + rename + directory fsync).
func saveSnapshot(dir string, frames []byte, nosync bool) error {
	tmp := filepath.Join(dir, SnapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	_, err = f.Write(frames)
	if err == nil && !nosync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, SnapshotName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if !nosync {
		// Persist the rename itself; best-effort where directories cannot
		// be fsynced.
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// Compact folds the entire retained record sequence into the snapshot
// file and truncates the log, bounding recovery time and disk use.
// reduce selects which records the snapshot retains (nil keeps all),
// as HistoryFrames' keep does; records it drops are gone from future
// recoveries, so reducers must keep everything replay still needs — see
// CompactPolicy. The snapshot's last record is its last sequence number,
// so a reducer that drops the head record fails the compaction, with no
// file touched: Open would hand out its sequence number again.
func (l *Log) Compact(reduce func([]Record) []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return fmt.Errorf("wal: log failed: %w", l.syncErr)
	}
	if !l.opts.NoSync && l.syncedSeq < l.seq {
		l.fsyncLocked()
		if l.syncErr != nil {
			return fmt.Errorf("wal: fsync before compaction: %w", l.syncErr)
		}
	}
	h, err := readHistory(l.dir)
	if err != nil {
		return err
	}
	if h.log.torn != "" {
		// Cannot happen: a failed append stops the log above.
		return fmt.Errorf("wal: log tail torn during compaction: %s", h.log.torn)
	}
	kept, frames, err := h.keep(reduce)
	if err != nil {
		return err
	}
	if last := lastSeq(kept); last != l.seq {
		return fmt.Errorf("wal: compaction reducer dropped the head record %d (its last kept record is %d)", l.seq, last)
	}
	if err := saveSnapshot(l.dir, frames, l.opts.NoSync); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate log after compaction: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.syncErr = err
			l.cond.Broadcast()
			return fmt.Errorf("wal: sync truncated log: %w", err)
		}
	}
	l.off = 0
	l.frames = l.frames[:0]
	l.count = len(kept)
	// The log file is empty now; contiguous tail reads are only possible
	// for records appended after this point.
	l.tailFloor = l.seq
	l.reg.Counter(metricCompactions).Inc()
	return nil
}

// StateStart returns the index of the anchors record a history's state
// starts at. A state prefix — what every log's History is, compacted or
// not — is zero or more audit records, then an anchors record (the
// genesis, or the re-anchoring a compaction cut at), then the records
// after it; the audit records ahead of the anchors are decision history
// only. A history of any other shape has no state start.
func StateStart(recs []Record) (int, error) {
	for i, r := range recs {
		switch r.Type {
		case TypeAudit:
			continue
		case TypeAnchors:
			return i, nil
		}
		return 0, fmt.Errorf("wal: history reaches %s at record %d before any %s (not a state prefix)", r.Type, i, TypeAnchors)
	}
	return 0, fmt.Errorf("wal: history holds no %s record (not a state prefix)", TypeAnchors)
}

// CompactPolicy returns the standard reducer for Compact: it keeps every
// record from the most recent anchors record onward — a re-anchoring
// holds every belief it carries into its epoch, so earlier belief
// mutations are superseded — plus the newest keepAudit audit records
// from before that cut, so the decision history is not wholly lost at a
// re-anchoring (keepAudit < 0 keeps all of them, 0 drops them). Its
// output is a state prefix (StateStart).
func CompactPolicy(keepAudit int) func([]Record) []Record {
	return func(recs []Record) []Record {
		cut := 0
		for i, r := range recs {
			if r.Type == TypeAnchors {
				cut = i
			}
		}
		var prefixAudit []Record
		if keepAudit != 0 {
			for i := cut - 1; i >= 0; i-- {
				if keepAudit > 0 && len(prefixAudit) == keepAudit {
					break
				}
				if recs[i].Type == TypeAudit {
					prefixAudit = append(prefixAudit, recs[i])
				}
			}
			// Collected newest-first; restore ascending sequence order.
			for i, j := 0, len(prefixAudit)-1; i < j; i, j = i+1, j-1 {
				prefixAudit[i], prefixAudit[j] = prefixAudit[j], prefixAudit[i]
			}
		}
		out := make([]Record, 0, len(prefixAudit)+len(recs)-cut)
		out = append(out, prefixAudit...)
		out = append(out, recs[cut:]...)
		return out
	}
}
