package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
)

func body(s string) json.RawMessage {
	b, _ := json.Marshal(s)
	return b
}

func appendN(t *testing.T, l *Log, n int, typ Type) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Type: typ, At: clock.Time(100 + i), Body: body(fmt.Sprintf("r%d", i))}, true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || !l.Empty() {
		t.Fatalf("fresh dir not empty: %d records", len(recs))
	}
	appendN(t, l, 5, TypeRevocation)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != TypeRevocation || r.At != clock.Time(100+i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// Appends continue the sequence.
	seq, err := l2.Append(Record{Type: TypeAudit, At: 200, Body: body("more")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("continued seq = %d, want 6", seq)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, TypeAudit)
	l.Close()

	// Crash mid-append: a partial frame at the tail.
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x40, 0, 0, 0, 0xde, 0xad} // claims 64-byte payload, 0 present
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	var warned string
	l2, recs, err := Open(dir, Options{Logf: func(format string, args ...any) {
		warned = fmt.Sprintf(format, args...)
	}})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if !strings.Contains(warned, "torn final record") {
		t.Fatalf("no truncation warning, got %q", warned)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn bytes not truncated: %d -> %d", before.Size(), after.Size())
	}
}

func TestMidLogCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, TypeRevocation)
	l.Close()

	// Flip one payload byte of the second record.
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := binary.LittleEndian.Uint32(data)
	off := headerSize + int(first) // start of record 2
	data[off+headerSize+4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{})
	ce, ok := err.(*corruptError)
	if !ok {
		t.Fatalf("open over corruption: got %v, want *corruptError", err)
	}
	if ce.Offset != int64(off) {
		t.Fatalf("corruption offset %d, want %d", ce.Offset, off)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{BatchWindow: 20 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append(Record{Type: TypeAudit, At: clock.Time(i), Body: body("x")}, true); err != nil {
				t.Errorf("append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := l.Seq(); got != writers {
		t.Fatalf("seq = %d, want %d", got, writers)
	}
	// All writers returned, so every record is synced; the histogram
	// should show far fewer fsyncs than appends (usually 1).
	snap := reg.Snapshot()
	var fsyncs uint64
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, MetricFsyncSeconds) {
			fsyncs += h.Count
		}
	}
	if fsyncs == 0 || fsyncs >= writers {
		t.Fatalf("group commit ran %d fsyncs for %d concurrent appends", fsyncs, writers)
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	anchorsBody, _ := json.Marshal(map[string]any{"epoch": 2})
	if _, err := l.Append(Record{Type: TypeAudit, At: 100, Body: body("old decision")}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: TypeRevocation, At: 101, Body: body("old revocation")}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: TypeAnchors, At: 102, Body: anchorsBody}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: TypeRevocation, At: 103, Body: body("live revocation")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(CompactPolicy(1)); err != nil {
		t.Fatal(err)
	}
	if got := l.LogBytes(); got != 0 {
		t.Fatalf("log not truncated after compaction: %d bytes", got)
	}
	// Post-compaction appends land in the (empty) log.
	if _, err := l.Append(Record{Type: TypeAudit, At: 104, Body: body("new decision")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var types []Type
	for _, r := range recs {
		types = append(types, r.Type)
	}
	want := []Type{TypeAudit, TypeAnchors, TypeRevocation, TypeAudit}
	if len(types) != len(want) {
		t.Fatalf("recovered types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("recovered types %v, want %v", types, want)
		}
	}
	// The pre-anchors revocation is compacted away; the pre-anchors audit
	// tail (keepAudit=1) survives; sequences stay ascending.
	var last uint64
	for _, r := range recs {
		if r.Seq <= last {
			t.Fatalf("sequence regression after compaction: %v", recs)
		}
		last = r.Seq
	}
	if c := reg.Counter(metricCompactions).Value(); c != 1 {
		t.Fatalf("snapshot_compactions_total = %d, want 1", c)
	}
}

func TestOpenSkipsLogRecordsCoveredBySnapshot(t *testing.T) {
	// A crash between the snapshot rename and the log truncate leaves
	// records in both; recovery must not replay them twice.
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, TypeRevocation)
	logCopy, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Undo the truncate, as if the crash hit right after the rename.
	if err := os.WriteFile(filepath.Join(dir, LogName), logCopy, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (snapshot-covered log records must be skipped)", len(recs))
	}
}

func TestInspectAndDump(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	anchorsBody, _ := json.Marshal(map[string]any{"epoch": 3})
	l.Append(Record{Type: TypeAnchors, At: 100, Body: anchorsBody}, true)
	l.Append(Record{Type: TypeRevocation, At: 101, Body: body("r")}, true)
	l.Append(Record{Type: TypeAudit, At: 102, Body: body("a")}, true)
	l.Close()

	_, info, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Healthy() || info.Records != 3 || info.LastSeq != 3 || info.LastAt != 102 {
		t.Fatalf("inspect: %+v", info)
	}
	if info.LastEpoch != 3 {
		t.Fatalf("last epoch = %d, want 3", info.LastEpoch)
	}
	if info.CountsByType[TypeRevocation] != 1 || info.CountsByType[TypeAudit] != 1 || info.CountsByType[TypeAnchors] != 1 {
		t.Fatalf("counts: %+v", info.CountsByType)
	}
	if s := info.String(); !strings.Contains(s, "integrity: ok") {
		t.Fatalf("report: %s", s)
	}

	// Corrupt the middle record; Dump reports it without failing.
	data, _ := os.ReadFile(filepath.Join(dir, LogName))
	first := binary.LittleEndian.Uint32(data)
	data[headerSize+int(first)+headerSize+2] ^= 0xff
	os.WriteFile(filepath.Join(dir, LogName), data, 0o644)
	_, info, err = Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Healthy() || info.Corrupt == "" {
		t.Fatalf("corruption not detected: %+v", info)
	}
}

func TestScanRejectsAbsurdLength(t *testing.T) {
	frame := make([]byte, headerSize+4)
	binary.LittleEndian.PutUint32(frame, MaxRecordBytes+1)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[headerSize:], crcTable))
	_, _, torn, corrupt := Scan(frame)
	if corrupt == nil || torn != "" {
		t.Fatalf("absurd length: torn=%q corrupt=%v, want corrupt", torn, corrupt)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(Record{Type: TypeAudit, Body: body("x")}, true); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestCloseUnderLoadStopsFlushTimer: closing a batch-windowed log while
// appenders are in full flight must stop the pending group-commit timer
// — the callback can never fire against the closed file — and settle
// every straggler to ErrClosed. Run under -race this also proves the
// timer/file handoff is clean.
func TestCloseUnderLoadStopsFlushTimer(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{BatchWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := l.Append(Record{Type: TypeAudit, Body: body("x")}, i%8 == 0)
					if err != nil {
						if err != ErrClosed && !strings.Contains(err.Error(), "closed") {
							t.Errorf("append under close: %v", err)
						}
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		time.Sleep(5 * time.Millisecond) // appends and flush timers in flight
		if err := l.Close(); err != nil {
			t.Fatalf("close under load: %v", err)
		}
		close(stop)
		wg.Wait()
		// Give a leaked timer (the pre-fix behaviour) its chance to fire
		// against the closed file before the next round reuses the path.
		time.Sleep(3 * time.Millisecond)
		if _, err := l.Append(Record{Type: TypeAudit, Body: body("late")}, true); err != ErrClosed {
			t.Fatalf("append after close: %v, want ErrClosed", err)
		}
		// Everything acknowledged before Close must be recoverable.
		l2, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after close-under-load: %v", err)
		}
		if len(recs) == 0 {
			t.Fatal("no records survived close under load")
		}
		l2.Close()
	}
}
