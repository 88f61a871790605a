package audit

import (
	"fmt"
	"sync"
	"testing"
)

func TestRetentionCapsLog(t *testing.T) {
	l := NewLog()
	l.SetRetention(3, nil)
	for i := 0; i < 10; i++ {
		l.Record(Entry{Requestor: fmt.Sprintf("u%d", i)})
	}
	if len(l.Entries()) != 3 {
		t.Fatalf("Len = %d, want 3", len(l.Entries()))
	}
	es := l.Entries()
	// The newest three survive, with their original sequence numbers —
	// eviction must not renumber history.
	for i, e := range es {
		if want := 8 + i; e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
		if want := fmt.Sprintf("u%d", 7+i); e.Requestor != want {
			t.Errorf("entry %d requestor = %q, want %q", i, e.Requestor, want)
		}
	}
}

func TestRetentionSinkReceivesEvicted(t *testing.T) {
	l := NewLog()
	var got []Entry
	l.SetRetention(2, func(e Entry) { got = append(got, e) })
	for i := 0; i < 5; i++ {
		l.Record(Entry{Requestor: fmt.Sprintf("u%d", i)})
	}
	if len(got) != 3 {
		t.Fatalf("sink received %d entries, want 3", len(got))
	}
	// Oldest first, in order.
	for i, e := range got {
		if e.Seq != i+1 {
			t.Errorf("evicted %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestRetentionAppliedRetroactively(t *testing.T) {
	l := NewLog()
	for i := 0; i < 6; i++ {
		l.Record(Entry{})
	}
	var evicted []Entry
	l.SetRetention(2, func(e Entry) { evicted = append(evicted, e) })
	if len(l.Entries()) != 2 || len(evicted) != 4 {
		t.Fatalf("Len = %d, evicted = %d; want 2 and 4", len(l.Entries()), len(evicted))
	}
	// Lifting the bound stops eviction.
	l.SetRetention(0, nil)
	for i := 0; i < 4; i++ {
		l.Record(Entry{})
	}
	if len(l.Entries()) != 6 {
		t.Errorf("Len = %d after bound lifted, want 6", len(l.Entries()))
	}
}

// TestRetentionConcurrent exercises eviction under parallel writers (run
// with -race): the cap holds and no sequence number is delivered twice
// across memory and sink.
func TestRetentionConcurrent(t *testing.T) {
	l := NewLog()
	var mu sync.Mutex
	seen := make(map[int]bool)
	l.SetRetention(8, func(e Entry) {
		mu.Lock()
		defer mu.Unlock()
		if seen[e.Seq] {
			t.Errorf("seq %d evicted twice", e.Seq)
		}
		seen[e.Seq] = true
	})
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(Entry{})
			}
		}()
	}
	wg.Wait()
	if len(l.Entries()) != 8 {
		t.Errorf("Len = %d, want 8", len(l.Entries()))
	}
	for _, e := range l.Entries() {
		mu.Lock()
		dup := seen[e.Seq]
		mu.Unlock()
		if dup {
			t.Errorf("seq %d both retained and evicted", e.Seq)
		}
	}
	if got := len(seen); got != writers*per-8 {
		t.Errorf("sink received %d, want %d", got, writers*per-8)
	}
}
