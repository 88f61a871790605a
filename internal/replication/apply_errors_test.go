package replication

import (
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"jointadmin/internal/obs"
	"jointadmin/internal/wal"
)

// TestApplierCountsEachRejectionReason drives every check that rejects a
// frame, each on a fresh applier, and requires repl_apply_errors_total to
// count the rejections under that check's reason and under no other.
func TestApplierCountsEachRejectionReason(t *testing.T) {
	w := newWriter(t)
	w.mutate(t, "reasons")
	snap := snapshotFrom(t, w)
	cursor := snap.LastSeq
	for _, tag := range []string{"reasons2", "reasons3", "reasons4"} {
		w.mutate(t, tag)
	}
	tail := recordsFrom(t, w, cursor)
	// frameAt is the shipped frame of the record at seq.
	frameAt := func(seq uint64) []byte {
		t.Helper()
		_, frames, err := w.log.ReadFrom(seq-1, 1, 0)
		if err != nil || len(frames) == 0 {
			t.Fatalf("frame at seq %d: %v", seq, err)
		}
		return frames
	}
	withTail := func(frames []byte) []byte {
		msg := tail
		msg.Frames = frames
		return mustJSON(t, msg)
	}
	unanchored := snap
	_, frames, _, err := w.log.HistoryFrames(func(recs []wal.Record) []wal.Record {
		var beliefs []wal.Record
		for _, r := range recs {
			if r.Type != wal.TypeAnchors && r.Seq <= cursor {
				beliefs = append(beliefs, r)
			}
		}
		return beliefs
	})
	if err != nil {
		t.Fatal(err)
	}
	unanchored.Frames = frames
	short := snap
	short.LastSeq++
	twice := snap
	twice.Objects = append(append(twice.Objects[:0:0], snap.Objects...), snap.Objects...)
	// A frame is a 4-byte little-endian payload length and a 4-byte CRC,
	// then the payload. One byte flipped inside the first frame's payload
	// fails its CRC, whatever the records' sizes; a flip in a length field
	// would read as a torn or an oversized frame instead.
	corrupt := append([]byte(nil), tail.Frames...)
	corrupt[8+binary.LittleEndian.Uint32(corrupt)/2] ^= 0xff

	type frame struct {
		kind    string
		payload []byte
	}
	for _, tc := range []struct {
		reason string
		// installed says the case starts from an installed snapshot.
		installed bool
		frames    []frame
		want      int64
	}{
		{reasonDecode, false, []frame{{kindSnapshot, []byte("{")}, {kindRecords, []byte("[")}, {kindStatus, []byte("1")}}, 3},
		{reasonBoundary, false, []frame{{kindSnapshot, mustJSON(t, short)}}, 1},
		{reasonObjects, false, []frame{{kindSnapshot, mustJSON(t, twice)}}, 1},
		{reasonInstall, false, []frame{{kindSnapshot, mustJSON(t, unanchored)}}, 1},
		{reasonGap, true, []frame{{kindRecords, withTail(frameAt(cursor + 2))}}, 1},
		{reasonOrder, true, []frame{{kindRecords, withTail(append(frameAt(cursor+1), frameAt(cursor+3)...))}}, 1},
		{reasonApply, true, []frame{{kindRecords, withTail(bogusFrame(t, cursor+1))}}, 1},
		{reasonCorrupt, true, []frame{{kindRecords, withTail(corrupt)}}, 1},
		{reasonTorn, true, []frame{{kindRecords, withTail(tail.Frames[:len(tail.Frames)-3])}}, 1},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			reg := obs.NewRegistry()
			ap := newTestApplier(newFakeNode(), reg)
			if tc.installed {
				ap.Handle(kindSnapshot, mustJSON(t, snap))
				if ap.Replica() == nil {
					t.Fatal("the snapshot did not install")
				}
			}
			for _, f := range tc.frames {
				ap.Handle(f.kind, f.payload)
			}
			var total int64
			for _, c := range reg.Snapshot().Counters {
				if strings.HasPrefix(c.Name, metricApplyErrors) {
					total += c.Value
				}
			}
			if got := applyErrors(reg, tc.reason); got != tc.want || total != tc.want {
				t.Errorf("%s{reason=%q} = %d of %d rejections, want %d of %d", metricApplyErrors, tc.reason, got, total, tc.want, tc.want)
			}
		})
	}
}

// bogusFrame is a well-framed record at seq of a type no replica applies.
func bogusFrame(t *testing.T, seq uint64) []byte {
	t.Helper()
	log, _, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i := uint64(1); i <= seq; i++ {
		rec := wal.Record{Type: wal.TypeAudit, Body: json.RawMessage(`{}`)}
		if i == seq {
			rec.Type = "bogus"
		}
		if _, err := log.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	_, frames, err := log.ReadFrom(seq-1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}
