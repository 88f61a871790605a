package wal

import (
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
