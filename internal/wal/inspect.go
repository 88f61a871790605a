// Read-only inspection of a data directory, for the `policyctl wal`
// subcommand and operator tooling: record counts per type, last epoch,
// and an integrity verdict, without opening the log for writing or
// truncating a torn tail.

package wal

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"jointadmin/internal/clock"
)

// info summarizes a data directory's durable state.
type info struct {
	Dir string `json:"dir"`

	SnapshotRecords int    `json:"snapshotRecords"`
	SnapshotLastSeq uint64 `json:"snapshotLastSeq"`
	SnapshotBytes   int64  `json:"snapshotBytes"`
	LogRecords      int    `json:"logRecords"`
	LogBytes        int64  `json:"logBytes"`

	// Records counts the full recovered sequence (snapshot + log, minus
	// log records the snapshot already covers).
	Records      int          `json:"records"`
	CountsByType map[Type]int `json:"countsByType"`
	LastSeq      uint64       `json:"lastSeq"`
	LastAt       clock.Time   `json:"lastAt"`
	// LastEpoch is the key epoch of the most recent anchors record, -1
	// when the log holds none.
	LastEpoch int64 `json:"lastEpoch"`

	// TornTail reports a partially written final record (the harmless
	// leftover of a crash mid-append; Open would truncate it).
	TornTail   bool   `json:"tornTail"`
	TornOffset int64  `json:"tornOffset,omitempty"`
	TornReason string `json:"tornReason,omitempty"`
	// Corrupt reports unrecoverable mid-log corruption; Open would fail
	// closed on it.
	Corrupt string `json:"corrupt,omitempty"`
}

// Healthy reports whether Open would recover this directory without
// data loss (a torn tail is recoverable; corruption is not).
func (in info) Healthy() bool { return in.Corrupt == "" }

// String renders the info as an operator-facing report.
func (in info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "data dir %s\n", in.Dir)
	fmt.Fprintf(&b, "  snapshot: %d records through seq %d (%d bytes)\n", in.SnapshotRecords, in.SnapshotLastSeq, in.SnapshotBytes)
	fmt.Fprintf(&b, "  log:      %d records (%d bytes)\n", in.LogRecords, in.LogBytes)
	fmt.Fprintf(&b, "  total:    %d records, last seq %d at %s, last epoch %d\n", in.Records, in.LastSeq, in.LastAt, in.LastEpoch)
	types := make([]Type, 0, len(in.CountsByType))
	for t := range in.CountsByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Fprintf(&b, "    %-20s %d\n", t, in.CountsByType[t])
	}
	switch {
	case in.Corrupt != "":
		fmt.Fprintf(&b, "  CORRUPT: %s\n", in.Corrupt)
	case in.TornTail:
		fmt.Fprintf(&b, "  torn final record at offset %d (%s): recoverable, truncated on next open\n", in.TornOffset, in.TornReason)
	default:
		b.WriteString("  integrity: ok\n")
	}
	return b.String()
}

// Dump reads a data directory without modifying it and returns the
// recovered record sequence plus its summary. Corruption is reported in
// info.Corrupt (with the valid prefix still returned) rather than as an
// error; the error covers I/O problems only.
func Dump(dir string) ([]Record, info, error) {
	in := info{Dir: dir, CountsByType: map[Type]int{}, LastEpoch: -1}

	h, err := readHistory(dir)
	if ce, ok := err.(*corruptError); ok {
		in.Corrupt = ce.Error()
	} else if err != nil {
		return nil, in, err
	}
	in.SnapshotRecords, in.SnapshotLastSeq, in.SnapshotBytes = len(h.snap.recs), lastSeq(h.snap.recs), h.snap.size
	in.LogRecords, in.LogBytes = len(h.log.recs), h.log.size
	if h.log.torn != "" {
		in.TornTail, in.TornOffset, in.TornReason = true, h.log.valid, h.log.torn
	}
	in.Records = len(h.recs)
	for _, r := range h.recs {
		in.CountsByType[r.Type]++
		in.LastSeq, in.LastAt = r.Seq, r.At
		if r.Type == TypeAnchors {
			var body struct {
				Epoch uint64 `json:"epoch"`
			}
			if json.Unmarshal(r.Body, &body) == nil {
				in.LastEpoch = int64(body.Epoch)
			}
		}
	}
	return h.recs, in, nil
}
