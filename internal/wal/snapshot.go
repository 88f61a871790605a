// Snapshot persistence and log compaction.
//
// A snapshot is the compacted prefix of the record sequence, stored as
// one JSON document and replaced atomically: the new snapshot is written
// to a temporary file, fsynced, renamed over the old one, and the
// directory is fsynced. A crash during compaction therefore leaves
// either the old snapshot (rename not reached) or the new one; log
// records the new snapshot already covers are skipped at Open by their
// sequence numbers.

package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// snapshot is the on-disk compacted state.
type snapshot struct {
	// LastSeq is the highest sequence number the snapshot covers; log
	// records at or below it are stale leftovers of an interrupted
	// compaction.
	LastSeq uint64 `json:"lastSeq"`
	// Records is the retained record sequence, ascending by Seq.
	Records []Record `json:"records"`
}

// loadSnapshot reads a snapshot file; a missing file is an empty
// snapshot, an unreadable one fails closed.
func loadSnapshot(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return s, fmt.Errorf("wal: read snapshot: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, &corruptError{Path: path, Reason: "undecodable snapshot: " + err.Error()}
	}
	var last uint64
	for i, r := range s.Records {
		if r.Seq <= last {
			return s, &corruptError{Path: path, Reason: fmt.Sprintf("snapshot record %d: sequence regression: %d after %d", i, r.Seq, last)}
		}
		last = r.Seq
	}
	if last > s.LastSeq {
		return s, &corruptError{Path: path, Reason: fmt.Sprintf("snapshot lastSeq %d below contained record %d", s.LastSeq, last)}
	}
	return s, nil
}

// saveSnapshot writes a snapshot atomically (temp file + fsync + rename
// + directory fsync).
func saveSnapshot(dir string, s snapshot, nosync bool) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	tmp := filepath.Join(dir, SnapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if !nosync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: sync snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: rename snapshot: %w", err)
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

// Compact folds the entire recovered record sequence into the snapshot
// file and truncates the log, bounding recovery time and disk use.
// reduce selects which records the snapshot retains (nil keeps all);
// records it drops are gone from future recoveries, so reducers must
// keep everything replay still needs — see CompactPolicy.
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
	snap, err := loadSnapshot(filepath.Join(l.dir, SnapshotName))
	if err != nil {
		return err
	}
	data := make([]byte, l.off)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return fmt.Errorf("wal: read log for compaction: %w", err)
	}
	logRecs, _, torn, corrupt := Scan(data)
	if corrupt != nil {
		corrupt.Path = l.path
		return corrupt
	}
	if torn != "" {
		// Cannot happen: l.off only ever covers fully written frames.
		return fmt.Errorf("wal: log tail torn during compaction: %s", torn)
	}
	all := make([]Record, 0, len(snap.Records)+len(logRecs))
	all = append(all, snap.Records...)
	for _, r := range logRecs {
		if r.Seq > snap.LastSeq {
			all = append(all, r)
		}
	}
	if reduce != nil {
		all = reduce(all)
	}
	if err := saveSnapshot(l.dir, snapshot{LastSeq: l.seq, Records: all}, l.opts.NoSync); err != nil {
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
	l.count = len(all)
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
