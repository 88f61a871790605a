// Fuzz and property tests for the frame format: whatever bytes land on
// disk, in the log or the snapshot, Scan must classify them as a valid
// prefix, a torn tail, or corruption — never accept altered data and
// never panic.
package wal

import (
	"bytes"
	"encoding/json"
	"testing"

	"jointadmin/internal/clock"
)

// frames encodes a few records back to back.
func frames(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(map[string]int{"i": i})
		f, err := encodeFrame(Record{Seq: uint64(i + 1), Type: TypeRevocation, At: clock.Time(100 + i), Body: b})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(f)
	}
	return buf.Bytes()
}

// FuzzFrameScan feeds Scan arbitrary bytes. Scan is the only decoder of
// durable bytes — the log, the snapshot (which stores the same frames)
// and the frames a follower is shipped — so this covers the snapshot's
// decoder too.
func FuzzFrameScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames(f, 1))
	f.Add(frames(f, 3))
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, torn, corrupt := Scan(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d out of [0, %d]", off, len(data))
		}
		if torn != "" && corrupt != nil {
			t.Fatal("both torn and corrupt reported")
		}
		if torn == "" && corrupt == nil && off != int64(len(data)) {
			t.Fatalf("clean scan stopped early at %d of %d", off, len(data))
		}
		// The accepted prefix must re-scan to the same records: what Open
		// recovers after truncating at off is exactly recs.
		recs2, off2, torn2, corrupt2 := Scan(data[:off])
		if torn2 != "" || corrupt2 != nil || off2 != off || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not re-scan cleanly: %d/%v/%v", off2, torn2, corrupt2)
		}
	})
}

// TestScanTruncationProperty: every proper prefix of a valid stream is
// either clean (cut on a frame boundary) or torn — never corrupt — and
// the records it yields are a prefix of the full sequence.
func TestScanTruncationProperty(t *testing.T) {
	data := frames(t, 4)
	full, _, _, _ := Scan(data)
	if len(full) != 4 {
		t.Fatalf("full scan: %d records", len(full))
	}
	for cut := 0; cut < len(data); cut++ {
		recs, off, torn, corrupt := Scan(data[:cut])
		if corrupt != nil {
			t.Fatalf("truncation at %d reported corruption: %v", cut, corrupt)
		}
		if int64(cut) != off && torn == "" {
			t.Fatalf("truncation at %d: neither clean nor torn", cut)
		}
		if len(recs) > len(full) {
			t.Fatalf("truncation at %d yielded %d records", cut, len(recs))
		}
		for i, r := range recs {
			if r.Seq != full[i].Seq {
				t.Fatalf("truncation at %d: record %d seq %d, want %d", cut, i, r.Seq, full[i].Seq)
			}
		}
	}
}

// TestScanBitFlipProperty: flipping any single bit of a valid stream
// must never yield the original record sequence unnoticed — the scan
// either reports torn/corrupt or decodes something observably different.
func TestScanBitFlipProperty(t *testing.T) {
	data := frames(t, 3)
	orig, _, _, _ := Scan(data)
	origJSON := make([][]byte, len(orig))
	for i, r := range orig {
		origJSON[i], _ = json.Marshal(r)
	}
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			recs, _, torn, corrupt := Scan(mut)
			if torn != "" || corrupt != nil {
				continue // detected
			}
			if len(recs) != len(orig) {
				continue // observably different
			}
			same := true
			for i, r := range recs {
				got, _ := json.Marshal(r)
				if !bytes.Equal(got, origJSON[i]) {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("bit flip at byte %d bit %d silently preserved the record sequence", pos, bit)
			}
		}
	}
}
