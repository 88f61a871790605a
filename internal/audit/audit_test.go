package audit

import (
	"strings"
	"sync"
	"testing"
)

func TestLogRecordAndEntries(t *testing.T) {
	l := NewLog()
	seq := l.Record(Entry{At: 10, Outcome: Approved, Requestor: "alice", Operation: "write", Object: "O", Group: "G_write"})
	if seq != 1 {
		t.Errorf("first seq = %d", seq)
	}
	l.Record(Entry{At: 11, Outcome: Denied, Requestor: "mallory", Reason: "threshold not met"})
	if len(l.Entries()) != 2 {
		t.Errorf("Len = %d", len(l.Entries()))
	}
	es := l.Entries()
	if es[0].Seq != 1 || es[1].Seq != 2 {
		t.Errorf("sequence numbers: %d, %d", es[0].Seq, es[1].Seq)
	}
	// Entries returns a copy.
	es[0].Requestor = "mutated"
	if l.Entries()[0].Requestor != "alice" {
		t.Error("Entries leaked internal state")
	}
}

func TestByOutcome(t *testing.T) {
	l := NewLog()
	l.Record(Entry{Outcome: Approved})
	l.Record(Entry{Outcome: Denied})
	l.Record(Entry{Outcome: Denied})
	l.Record(Entry{Outcome: RevocationRecorded})
	if got := len(l.ByOutcome(Denied)); got != 2 {
		t.Errorf("denied = %d", got)
	}
	if got := len(l.ByOutcome(Approved)); got != 1 {
		t.Errorf("approved = %d", got)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Approved.String() != "APPROVED" || Denied.String() != "DENIED" || RevocationRecorded.String() != "REVOCATION" {
		t.Error("outcome names wrong")
	}
	if !strings.Contains(Outcome(99).String(), "99") {
		t.Error("unknown outcome should include its number")
	}
}

func TestRender(t *testing.T) {
	l := NewLog()
	l.Record(Entry{At: 5, Outcome: Approved, Requestor: "alice", Operation: "read", Object: "O", Group: "G_read", Reason: "ok"})
	out := l.Render()
	for _, frag := range []string{"#1", "APPROVED", "alice", "G_read"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q in %q", frag, out)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				l.Record(Entry{Outcome: Approved})
			}
		}()
	}
	wg.Wait()
	if len(l.Entries()) != 200 {
		t.Errorf("Len = %d, want 200", len(l.Entries()))
	}
	// Sequence numbers must be unique and dense.
	seen := make(map[int]bool)
	for _, e := range l.Entries() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
