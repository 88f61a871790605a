package wal

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// tailErr is the error of one tail read.
func tailErr(l *Log, after uint64, max int) error {
	_, _, err := l.ReadFrom(after, max, 0)
	return err
}

// TestReadFromExclusiveCursor pins the strict cursor contract: ReadFrom(S)
// returns records starting at exactly S+1 — never S again (would re-apply
// a mutation) and never S+2 (would silently drop one).
func TestReadFromExclusiveCursor(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 10, TypeRevocation)

	for after := uint64(0); after <= 10; after++ {
		recs, _, err := l.ReadFrom(after, 0, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", after, err)
		}
		if want := int(10 - after); len(recs) != want {
			t.Fatalf("ReadFrom(%d): got %d records, want %d", after, len(recs), want)
		}
		if after < 10 && recs[0].Seq != after+1 {
			t.Fatalf("ReadFrom(%d): first seq %d, want %d", after, recs[0].Seq, after+1)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("ReadFrom(%d): gap at %d: %d then %d", after, i, recs[i-1].Seq, recs[i].Seq)
			}
		}
	}
}

// TestReadFromBatchBound checks that max caps the batch without skipping.
func TestReadFromBatchBound(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 10, TypeRevocation)

	recs, _, err := l.ReadFrom(2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("bounded read wrong: %+v", recs)
	}
	// The follow-up read continues from where the bound cut off.
	recs, _, err = l.ReadFrom(5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 6 {
		t.Fatalf("follow-up read wrong: %+v", recs)
	}
}

// TestReadFromAfterCompact pins the snapshot/tail boundary: after Compact,
// cursors below the head are compacted (ErrCompacted) and History's head
// is the exact cursor from which tail reads resume at head+1.
func TestReadFromAfterCompact(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5, TypeRevocation)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	// The floor is now 5: every cursor below it must refuse, not
	// silently skip.
	for after := uint64(0); after < 5; after++ {
		if _, _, err := l.ReadFrom(after, 0, 0); !errors.Is(err, ErrCompacted) {
			t.Fatalf("ReadFrom(%d) after compact: err = %v, want ErrCompacted", after, err)
		}
	}
	// At the floor the consumer is caught up, and new appends resume at
	// exactly floor+1.
	recs, _, err := l.ReadFrom(5, 0, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(5) = %v, %v; want empty, nil", recs, err)
	}
	appendN(t, l, 2, TypeGroupLink)
	recs, _, err = l.ReadFrom(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 6 || recs[1].Seq != 7 {
		t.Fatalf("post-compact tail wrong: %+v", recs)
	}
}

// TestHistoryHeadBoundary pins the snapshot-handoff boundary: History's
// returned head equals the last record's sequence, so the first tail
// record a consumer needs after a History bootstrap is head+1 — no
// overlap, no gap, even when part of the history lives in the snapshot.
func TestHistoryHeadBoundary(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 4, TypeRevocation)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, TypeGroupLink)

	all, head, err := l.History()
	if err != nil {
		t.Fatal(err)
	}
	if head != 7 || head != l.Seq() {
		t.Fatalf("history head = %d, want 7 (= log head %d)", head, l.Seq())
	}
	if len(all) != 7 {
		t.Fatalf("history has %d records, want 7", len(all))
	}
	for i, r := range all {
		if r.Seq != uint64(i+1) {
			t.Fatalf("history record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if all[len(all)-1].Seq != head {
		t.Fatalf("last history seq %d != head %d", all[len(all)-1].Seq, head)
	}
	// The tail after a History bootstrap starts at exactly head+1.
	appendN(t, l, 1, TypeRevocation)
	recs, _, err := l.ReadFrom(head, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != head+1 {
		t.Fatalf("tail after history = %+v, want single record seq %d", recs, head+1)
	}
}

// TestNotifyAppendWakes checks the grab-then-read follow pattern: a
// channel taken before an empty read is closed by the next append, and a
// closed log yields an already-closed channel.
func TestNotifyAppendWakes(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	notify := l.NotifyAppend()
	select {
	case <-notify:
		t.Fatal("notify channel closed before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-notify
	}()
	appendN(t, l, 1, TypeRevocation)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake NotifyAppend waiter")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.NotifyAppend():
	default:
		t.Fatal("NotifyAppend on closed log should return a closed channel")
	}
}

// TestHistoryFramesRoundTrip checks the handoff ships the stored frames:
// Scan decodes HistoryFrames' output, from the snapshot and the log, to
// exactly its records, and a flipped byte surfaces as a corruptError
// (the applier's fail-closed path).
func TestHistoryFramesRoundTrip(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, TypeRevocation)
	if err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, TypeAudit)
	recs, frames, head, err := l.HistoryFrames(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, torn, corrupt := Scan(frames)
	if corrupt != nil || torn != "" {
		t.Fatalf("round trip failed: corrupt=%v torn=%q", corrupt, torn)
	}
	if len(got) != 5 || head != 5 || !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip records %v (head %d), HistoryFrames returned %v", seqs(got), head, seqs(recs))
	}
	// Damage one payload byte: the CRC must catch it.
	bad := append([]byte(nil), frames...)
	bad[len(bad)/2] ^= 0xff
	_, _, torn, corrupt = Scan(bad)
	if corrupt == nil && torn == "" {
		t.Fatal("corrupted frames scanned clean")
	}
}

// TestReadFromClosed pins ErrClosed on a closed log.
func TestReadFromClosed(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, TypeRevocation)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadFrom(0, 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on closed log: %v, want ErrClosed", err)
	}
	if _, _, err := l.History(); !errors.Is(err, ErrClosed) {
		t.Fatalf("History on closed log: %v, want ErrClosed", err)
	}
}
