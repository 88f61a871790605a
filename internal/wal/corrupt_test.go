package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

// TestReadFromCorruptionParity flips one payload byte of one frame in
// the live log of an open Log and checks the tail read refuses with the
// *corruptError recovery would give: the log's path, the frame's
// absolute file offset and the checksum reason. The damaged frame sits
// before the cursor (a record already shipped), inside the batch, or
// after a batch cut short by max.
func TestReadFromCorruptionParity(t *testing.T) {
	cases := []struct {
		name  string
		frame int // index of the damaged frame; frame i holds seq i+1
		after uint64
		max   int
	}{
		{"before-cursor", 1, 4, 0},
		{"inside-batch", 5, 4, 0},
		{"after-batch", 6, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for i := range 8 {
				rec := Record{Type: TypeAudit, At: clock.Time(i), Body: body(strings.Repeat("x", 10+37*i))}
				if _, err := l.Append(rec, false); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(dir, LogName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for range c.frame {
				off += headerSize + int(binary.LittleEndian.Uint32(data[off:]))
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			stored := binary.LittleEndian.Uint32(data[off+4:])
			pos := off + headerSize + length/2
			data[pos] ^= 0x20
			computed := crc32.Checksum(data[off+headerSize:off+headerSize+length], crcTable)

			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data[pos:pos+1], int64(pos)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			err = tailErr(l, c.after, c.max)
			var ce *corruptError
			if !errors.As(err, &ce) {
				t.Fatalf("ReadFrom(%d, %d) = %v, want a *corruptError", c.after, c.max, err)
			}
			want := corruptError{Path: path, Offset: int64(off),
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, computed)}
			if *ce != want {
				t.Fatalf("ReadFrom(%d, %d) refused with %+v, want %+v", c.after, c.max, *ce, want)
			}
		})
	}
}

// TestSnapshotCorruptionFailsClosed flips one payload byte of a snapshot
// frame. Every reader of the data directory refuses it with the
// *corruptError of that frame — the snapshot's path and the frame's
// absolute offset — as it would refuse the same damage in the log: Open,
// History, HistoryFrames, Compact (which then touches no file) and Dump
// (in info.Corrupt).
func TestSnapshotCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := range 4 {
		rec := Record{Type: TypeRevocation, At: clock.Time(i), Body: body(strings.Repeat("g", 20+11*i))}
		if _, err := l.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, TypeAudit)

	path := filepath.Join(dir, SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := headerSize + int(binary.LittleEndian.Uint32(data)) // the second frame
	length := int(binary.LittleEndian.Uint32(data[off:]))
	stored := binary.LittleEndian.Uint32(data[off+4:])
	data[off+headerSize+length/2] ^= 0x20
	computed := crc32.Checksum(data[off+headerSize:off+headerSize+length], crcTable)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	logBefore, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	want := corruptError{Path: path, Offset: int64(off),
		Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, computed)}
	check := func(op string, err error) {
		t.Helper()
		var ce *corruptError
		if !errors.As(err, &ce) || *ce != want {
			t.Fatalf("%s over a damaged snapshot = %v, want %v", op, err, &want)
		}
	}

	_, _, err = l.History()
	check("History", err)
	_, _, _, err = l.HistoryFrames(nil)
	check("HistoryFrames", err)
	check("Compact", l.Compact(nil))
	for name, before := range map[string][]byte{SnapshotName: data, LogName: logBefore} {
		if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("the refused compaction changed %s (%v)", name, err)
		}
	}
	if _, info, err := Dump(dir); err != nil || info.Corrupt != want.Error() || info.Healthy() {
		t.Fatalf("Dump over a damaged snapshot: Corrupt %q, err %v; want %q", info.Corrupt, err, want.Error())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{NoSync: true})
	check("Open", err)
}

// TestTornSnapshotIsCorruption: the snapshot is renamed into place whole,
// so a snapshot that ends in a partial frame was damaged after it was
// written. Open refuses it rather than truncating it as it would a torn
// log tail.
func TestTornSnapshotIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, TypeRevocation)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{NoSync: true})
	var ce *corruptError
	if !errors.As(err, &ce) || ce.Path != path || !strings.Contains(ce.Reason, "torn snapshot") {
		t.Fatalf("Open over a torn snapshot = %v, want a *corruptError naming %s as torn", err, path)
	}
}

// TestOpenRefusesJSONSnapshot: a data directory that still holds the JSON
// snapshot of before snapshots were framed is refused, with an error
// that names the file, and left as it is.
func TestOpenRefusesJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(old, []byte(`{"lastSeq":1,"records":[{"seq":1,"type":"audit","at":1,"body":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{NoSync: true})
	if err == nil {
		l.Close()
		t.Fatal("Open recovered a directory holding snapshot.json")
	}
	if !strings.Contains(err.Error(), old) {
		t.Fatalf("Open's refusal %q does not name %s", err, old)
	}
	if _, err := os.Stat(filepath.Join(dir, LogName)); !os.IsNotExist(err) {
		t.Fatalf("the refused Open created %s (%v)", LogName, err)
	}
	if _, _, err := Dump(dir); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("Dump of a directory holding snapshot.json = %v, want an error naming it", err)
	}
}

// TestCompactRefusesDroppedHead: the snapshot's last record is its last
// sequence number, so a reducer that drops the head record would let
// Open hand that number out again. Compact refuses it and leaves both
// files as they were.
func TestCompactRefusesDroppedHead(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, TypeRevocation)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, TypeAudit)
	files := func() [2][]byte {
		var out [2][]byte
		for i, name := range []string{SnapshotName, LogName} {
			if out[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	before := files()
	err = l.Compact(func(recs []Record) []Record { return recs[:len(recs)-1] })
	if err == nil || !strings.Contains(err.Error(), "head record 5") {
		t.Fatalf("Compact with a reducer dropping the head = %v, want a refusal naming head record 5", err)
	}
	if after := files(); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) {
		t.Fatal("the refused compaction changed the snapshot or the log")
	}
	if seq, err := l.Append(Record{Type: TypeAudit, Body: body("next")}, false); err != nil || seq != 6 {
		t.Fatalf("append after the refused compaction = seq %d, %v; want 6", seq, err)
	}
}
