package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
)

// oracleReadFrom is the tail read the frame index replaced, kept as the
// reference it is checked against: read the whole live log, Scan it,
// keep the records past after, cap at max.
func oracleReadFrom(l *Log, after uint64, max int) ([]Record, error) {
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
		return nil, err
	}
	recs, _, torn, corrupt := Scan(data)
	if corrupt != nil {
		return nil, corrupt
	}
	if torn != "" {
		return nil, fmt.Errorf("torn: %s", torn)
	}
	var out []Record
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

// oracleByteBound is the longest prefix of recs whose frames fit in
// maxBytes, never less than the first record (maxBytes <= 0: all).
func oracleByteBound(recs []Record, maxBytes int, frame func(Record) []byte) []Record {
	if maxBytes <= 0 {
		return recs
	}
	n, size := 0, 0
	for ; n < len(recs); n++ {
		f := frame(recs[n])
		if n > 0 && size+len(f) > maxBytes {
			break
		}
		size += len(f)
	}
	return recs[:n]
}

// checkTail compares ReadFrom against the oracle for every cursor from
// just below the tail floor to the head, under every count and byte
// bound of the differential test.
func checkTail(t *testing.T, l *Log, step string) {
	t.Helper()
	// A batch's frames are its records' encodeFrame end to end, so each
	// record is encoded once per check.
	encoded := map[uint64][]byte{}
	frame := func(r Record) []byte {
		f, ok := encoded[r.Seq]
		if !ok {
			var err error
			if f, err = encodeFrame(r); err != nil {
				t.Fatal(err)
			}
			encoded[r.Seq] = f
		}
		return f
	}
	floor, head := l.tailFloor, l.Seq()
	from := floor
	if from > 0 {
		from-- // one cursor below the floor: ErrCompacted on both sides
	}
	for after := from; after <= head; after++ {
		for _, max := range []int{0, 1, 3, 64} {
			want, wantErr := oracleReadFrom(l, after, max)
			// Bounds landing exactly on, and one byte short of, the end of
			// the second frame past the cursor.
			two := 0
			for _, r := range want[:min(2, len(want))] {
				two += len(frame(r))
			}
			for _, maxBytes := range []int{0, 1, 40 << 10, two, two - 1} {
				got, frames, err := l.ReadFrom(after, max, maxBytes)
				if errors.Is(wantErr, ErrCompacted) != errors.Is(err, ErrCompacted) || (wantErr == nil) != (err == nil) {
					t.Fatalf("%s: ReadFrom(%d, %d, %d) err = %v, oracle %v", step, after, max, maxBytes, err, wantErr)
				}
				if err != nil {
					continue
				}
				w := oracleByteBound(want, maxBytes, frame)
				if len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
					t.Fatalf("%s: ReadFrom(%d, %d, %d) = records %v, oracle %v", step, after, max, maxBytes, seqs(got), seqs(w))
				}
				var enc []byte
				for _, r := range w {
					enc = append(enc, frame(r)...)
				}
				if !bytes.Equal(frames, enc) {
					t.Fatalf("%s: ReadFrom(%d, %d, %d): frames (%d bytes) differ from encodeFrame of its records (%d bytes)", step, after, max, maxBytes, len(frames), len(enc))
				}
			}
		}
	}
}

// oracleHistory is the assembly of a data directory that Open, Compact,
// History and Dump each carried a copy of before they shared one reader,
// kept as the reference they are checked against: the snapshot's
// records, then the log's records above the snapshot's last sequence
// number.
func oracleHistory(t *testing.T, dir string) []Record {
	t.Helper()
	read := func(name string) []Record {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, corrupt := Scan(data)
		if corrupt != nil {
			t.Fatal(corrupt)
		}
		return recs
	}
	all := read(SnapshotName)
	var last uint64
	if n := len(all); n > 0 {
		last = all[n-1].Seq
	}
	for _, r := range read(LogName) {
		if r.Seq > last {
			all = append(all, r)
		}
	}
	return all
}

// sameRecords reports whether got and want hold the same records (nil
// and empty alike).
func sameRecords(got, want []Record) bool {
	return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
}

// checkHistory compares every reader of the data directory against the
// oracle assembly: History's records and head, HistoryFrames' records
// and frames (encodeFrame of each record, byte for byte), for the whole
// history and for a handoff-like selection, Dump's records, and the
// records Open recovers from a copy of the directory.
func checkHistory(t *testing.T, l *Log, dir, step string) {
	t.Helper()
	want := oracleHistory(t, dir)
	if n := len(want); n > 0 && want[n-1].Seq != l.Seq() {
		t.Fatalf("%s: the oracle history ends at %d, the log's head is %d", step, want[n-1].Seq, l.Seq())
	}
	recs, head, err := l.History()
	if err != nil || head != l.Seq() || !sameRecords(recs, want) {
		t.Fatalf("%s: History = %v head %d (%v), oracle %v head %d", step, seqs(recs), head, err, seqs(want), l.Seq())
	}
	// Every third record and the head, as the handoff keeps state records
	// and the last one.
	sparse := func(recs []Record) []Record {
		var out []Record
		for i, r := range recs {
			if i%3 == 0 || i == len(recs)-1 {
				out = append(out, r)
			}
		}
		return out
	}
	for _, keep := range []func([]Record) []Record{nil, sparse} {
		w := want
		if keep != nil {
			w = sparse(want)
		}
		kept, frames, head, err := l.HistoryFrames(keep)
		if err != nil || head != l.Seq() || !sameRecords(kept, w) {
			t.Fatalf("%s: HistoryFrames = %v head %d (%v), oracle %v", step, seqs(kept), head, err, seqs(w))
		}
		var enc []byte
		for _, r := range w {
			f, err := encodeFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			enc = append(enc, f...)
		}
		if !bytes.Equal(frames, enc) {
			t.Fatalf("%s: HistoryFrames' frames (%d bytes) differ from encodeFrame of its records (%d bytes)", step, len(frames), len(enc))
		}
	}
	dumped, info, err := Dump(dir)
	if err != nil || !info.Healthy() || !sameRecords(dumped, want) {
		t.Fatalf("%s: Dump = %v (%v, %q), oracle %v", step, seqs(dumped), err, info.Corrupt, seqs(want))
	}
	cp := t.TempDir()
	for _, name := range []string{SnapshotName, LogName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, recovered, err := Open(cp, Options{NoSync: true})
	if err != nil {
		t.Fatalf("%s: reopen: %v", step, err)
	}
	reopened.Close()
	if !sameRecords(recovered, want) {
		t.Fatalf("%s: a reopen recovers %v, oracle %v", step, seqs(recovered), seqs(want))
	}
}

func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// TestReadFromMatchesOracle drives random histories — appends of bodies
// up to a few hundred KB, compactions, reopens, torn tails truncated at
// Open, and compactions cut short between the snapshot's rename and the
// log's truncation, which leave records at or below the snapshot's
// LastSeq in the file — and after every step checks ReadFrom against the
// whole-log scan it replaced, and every reader of the data directory
// against the snapshot-then-log assembly (checkHistory).
func TestReadFromMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 52))
			dir := t.TempDir()
			path := filepath.Join(dir, LogName)
			open := func() *Log {
				l, _, err := Open(dir, Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			l := open()
			defer func() { l.Close() }()
			for step := range 30 {
				var what string
				switch op := rng.IntN(20); {
				case op < 13:
					size := rng.IntN(2 << 10)
					switch rng.IntN(40) {
					case 0:
						size = 100<<10 + rng.IntN(200<<10)
					case 1, 2, 3, 4, 5, 6:
						size = rng.IntN(48 << 10)
					}
					typ := TypeAudit
					if rng.IntN(5) == 0 {
						typ = TypeAnchors
					}
					what = fmt.Sprintf("append %s of %d bytes", typ, size)
					if _, err := l.Append(Record{Type: typ, At: clock.Time(step), Body: body(strings.Repeat("b", size))}, false); err != nil {
						t.Fatal(err)
					}
				case op < 15:
					keep := rng.IntN(4) - 1
					what = fmt.Sprintf("compact keeping %d audit records", keep)
					if err := l.Compact(CompactPolicy(keep)); err != nil {
						t.Fatal(err)
					}
				case op < 17:
					what = "reopen"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					l = open()
				case op < 18:
					what = "torn tail"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					torn := []byte{9, 9, 9} // a short header
					if rng.IntN(2) == 0 {
						torn = []byte{200, 0, 0, 0, 1, 2, 3, 4, '{'} // a short payload
					}
					f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(torn); err != nil {
						t.Fatal(err)
					}
					f.Close()
					l = open()
				default:
					what = "compaction cut short before the log's truncation"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					stale, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					l = open()
					if err := l.Compact(CompactPolicy(-1)); err != nil {
						t.Fatal(err)
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, stale, 0o644); err != nil {
						t.Fatal(err)
					}
					l = open()
				}
				checkTail(t, l, fmt.Sprintf("step %d (%s)", step, what))
				checkHistory(t, l, dir, fmt.Sprintf("step %d (%s)", step, what))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, wantErr := oracleReadFrom(l, l.Seq(), 0)
			if _, _, err := l.ReadFrom(l.Seq(), 0, 0); !errors.Is(err, ErrClosed) || !errors.Is(wantErr, ErrClosed) {
				t.Fatalf("closed log: ReadFrom err = %v, oracle %v", err, wantErr)
			}
		})
	}
}

// TestReadFromTailAllocsFlat: a one-record tail read allocates the same
// with 100 and with 2 000 records in the log — it decodes its batch, not
// the log.
func TestReadFromTailAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		l, _, err := Open(t.TempDir(), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		b := body(strings.Repeat("a", 200))
		for i := range n {
			if _, err := l.Append(Record{Type: TypeAudit, At: clock.Time(i), Body: b}, false); err != nil {
				t.Fatal(err)
			}
		}
		head := l.Seq()
		return testing.AllocsPerRun(50, func() {
			if recs, _, err := l.ReadFrom(head-1, 1, 0); err != nil || len(recs) != 1 {
				t.Fatalf("ReadFrom(%d, 1) = %d records, %v", head-1, len(recs), err)
			}
		})
	}
	if small, large := allocs(100), allocs(2000); small != large {
		t.Fatalf("one-record tail read: %v allocations with 100 records in the log, %v with 2 000", small, large)
	}
}

// TestReadFromObserved: every ReadFrom — a batch, a caught-up read, a
// refused cursor, a closed log — is one wal_read_seconds sample.
func TestReadFromObserved(t *testing.T) {
	reg := obs.NewRegistry()
	l, _, err := Open(t.TempDir(), Options{Metrics: reg, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, TypeAudit)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, TypeAudit)
	calls := 0
	read := func(after uint64) {
		calls++
		l.ReadFrom(after, 0, 0)
	}
	read(4) // a batch
	read(7) // caught up
	read(2) // below the tail floor
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	read(4) // closed
	var n uint64
	for _, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, metricReadSeconds) {
			n += h.Count
		}
	}
	if n != uint64(calls) {
		t.Fatalf("%s counted %d samples for %d reads", metricReadSeconds, n, calls)
	}
}
