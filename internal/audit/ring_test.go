package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// reqEntry is an entry for request number i.
func reqEntry(i int) Entry {
	return Entry{RequestID: fmt.Sprintf("P-%06d", i), Requestor: fmt.Sprintf("u%d", i)}
}

// wantWindow checks that l holds exactly the entries with Seq from..to
// (1-based, inclusive), oldest first, each still the request it was.
func wantWindow(t *testing.T, l *Log, from, to int) {
	t.Helper()
	es := l.Entries()
	if len(es) != to-from+1 || len(l.Entries()) != len(es) {
		t.Fatalf("Len = %d, Entries = %d; want %d (seq %d..%d)", len(l.Entries()), len(es), to-from+1, from, to)
	}
	for i, e := range es {
		if e.Seq != from+i || e.RequestID != fmt.Sprintf("P-%06d", from+i) {
			t.Fatalf("entry %d = seq %d %s, want seq %d", i, e.Seq, e.RequestID, from+i)
		}
	}
}

// TestRingWrap: across several wraps the log lists the newest entries
// oldest first with their original sequence numbers, counts evictions,
// and hands each evicted entry to the sink once, in order.
func TestRingWrap(t *testing.T) {
	l := NewLog()
	var sunk []int
	l.SetRetention(5, func(e Entry) { sunk = append(sunk, e.Seq) })
	for i := 1; i <= 23; i++ {
		if seq := l.Record(reqEntry(i)); seq != i {
			t.Fatalf("Record %d returned seq %d", i, seq)
		}
		if i >= 5 {
			wantWindow(t, l, i-4, i)
		}
	}
	if len(sunk) != 18 {
		t.Fatalf("sink calls = %d; want 18", len(sunk))
	}
	for i, seq := range sunk {
		if seq != i+1 {
			t.Fatalf("sink call %d got seq %d, want %d", i, seq, i+1)
		}
	}
	var approved []int
	for _, e := range l.ByOutcome(0) {
		approved = append(approved, e.Seq)
	}
	if fmt.Sprint(approved) != "[19 20 21 22 23]" {
		t.Errorf("ByOutcome = %v, want seq 19..23 oldest first", approved)
	}
	if r := l.Render(); !strings.HasPrefix(r, "#19 ") || !strings.Contains(r, "\n#23 ") {
		t.Errorf("Render not oldest first:\n%s", r)
	}
}

// TestRingSetRetention: shrinking a wrapped ring evicts its oldest
// entries at once (to the sink, in order) and keeps order; growing it
// keeps every entry and lets the ring fill to the new bound before the
// next eviction; lifting the bound stops eviction.
func TestRingSetRetention(t *testing.T) {
	l := NewLog()
	var sunk []int
	sink := func(e Entry) { sunk = append(sunk, e.Seq) }
	l.SetRetention(8, sink)
	for i := 1; i <= 13; i++ { // wrapped: seq 6..13, oldest mid-array
		l.Record(reqEntry(i))
	}
	sunk = nil
	l.SetRetention(3, sink)
	wantWindow(t, l, 11, 13)
	if fmt.Sprint(sunk) != "[6 7 8 9 10]" {
		t.Fatalf("shrink: sink got %v; want seq 6..10", sunk)
	}
	for i := 14; i <= 17; i++ { // wrap the shrunk ring
		l.Record(reqEntry(i))
	}
	wantWindow(t, l, 15, 17)

	sunk = nil
	l.SetRetention(6, sink)
	wantWindow(t, l, 15, 17)
	for i := 18; i <= 20; i++ {
		l.Record(reqEntry(i))
	}
	wantWindow(t, l, 15, 20)
	if len(sunk) != 0 {
		t.Fatalf("growing evicted %v", sunk)
	}
	l.Record(reqEntry(21))
	wantWindow(t, l, 16, 21)
	if fmt.Sprint(sunk) != "[15]" {
		t.Fatalf("first eviction after growing: %v, want [15]", sunk)
	}

	l.SetRetention(0, nil)
	for i := 22; i <= 30; i++ {
		l.Record(reqEntry(i))
	}
	wantWindow(t, l, 16, 30)
	for i := 16; i <= 30; i++ {
		if e, ok := l.ByRequestID(fmt.Sprintf("P-%06d", i)); !ok || e.Seq != i {
			t.Fatalf("ByRequestID(%d) after lifting the bound = %d, %v", i, e.Seq, ok)
		}
	}
}

// TestRingByRequestID: the index finds every retained entry, misses every
// evicted one, and follows the newest entry when an ID repeats.
func TestRingByRequestID(t *testing.T) {
	l := NewLog()
	l.SetRetention(4, nil)
	for i := 1; i <= 10; i++ {
		l.Record(reqEntry(i))
	}
	for i := 1; i <= 10; i++ {
		e, ok := l.ByRequestID(fmt.Sprintf("P-%06d", i))
		if retained := i > 6; ok != retained || (ok && e.Seq != i) {
			t.Errorf("ByRequestID(P-%06d) = seq %d, %v; want retained=%v", i, e.Seq, ok, retained)
		}
	}
	if _, ok := l.ByRequestID(""); ok {
		t.Error("an empty request ID matched")
	}
	// An ID recorded again (a restarted daemon replaying its predecessor's
	// entries) resolves to the newest copy, and survives the older copy's
	// eviction.
	l.Record(reqEntry(9))
	if e, _ := l.ByRequestID("P-000009"); e.Seq != 11 {
		t.Fatalf("repeated ID resolves to seq %d, want 11", e.Seq)
	}
	for i := 0; i < 3; i++ {
		l.Record(Entry{})
	}
	if e, ok := l.ByRequestID("P-000009"); !ok || e.Seq != 11 {
		t.Fatalf("repeated ID after the older copy's eviction = seq %d, %v; want 11", e.Seq, ok)
	}
}

// countingTrace renders a fixed text and counts its renderings.
type countingTrace struct {
	mu sync.Mutex
	n  int
}

func (c *countingTrace) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return "Derivation at P:\n  1. φ\n"
}

// TestDerivationRenderedOnRead: Record does not render; every copy the
// log hands out carries the text and no derivation, the sink included.
func TestDerivationRenderedOnRead(t *testing.T) {
	l := NewLog()
	var sunk []Entry
	l.SetRetention(2, func(e Entry) { sunk = append(sunk, e) })
	tr := &countingTrace{}
	for i := 1; i <= 3; i++ {
		e := reqEntry(i)
		e.Outcome, e.Derivation = Approved, tr
		l.Record(e)
	}
	if tr.n != 1 || len(sunk) != 1 {
		t.Fatalf("after 3 records: %d renderings, %d evicted; want 1 (the eviction) and 1", tr.n, len(sunk))
	}
	id, _ := l.ByRequestID("P-000003")
	copies := append([]Entry{sunk[0], id}, l.Entries()...)
	copies = append(copies, l.ByOutcome(Approved)...)
	for _, e := range copies {
		if e.ProofTrace != "Derivation at P:\n  1. φ\n" || e.Derivation != nil {
			t.Errorf("seq %d handed out with ProofTrace %q, Derivation %v", e.Seq, e.ProofTrace, e.Derivation)
		}
	}
	if !strings.Contains(l.Render(), "#3 ") || tr.n != len(copies) {
		t.Errorf("renderings = %d, want one per copy handed out (%d)", tr.n, len(copies))
	}
}

// TestRecordAllocsFlat: a steady-state Record — the ring full, every call
// evicting — allocates the same at retention 16 and 65 536, namely
// nothing: no copy of the evicted window, no growth of the index.
func TestRecordAllocsFlat(t *testing.T) {
	allocs := func(retention int) float64 {
		l := NewLog()
		l.SetRetention(retention, nil)
		ids := make([]Entry, 2*retention)
		for i := range ids {
			ids[i] = reqEntry(i)
		}
		for _, e := range ids { // fill and wrap once
			l.Record(e)
		}
		i := 0
		return testing.AllocsPerRun(1000, func() {
			l.Record(ids[i%len(ids)])
			i++
		})
	}
	small, large := allocs(16), allocs(65536)
	if small != large || small != 0 {
		t.Fatalf("steady-state Record allocs: %v at retention 16, %v at 65 536", small, large)
	}
}

// TestRingConcurrent (run under -race): Record, ByRequestID, Entries and
// SetRetention race across many wraps; every snapshot read stays oldest
// first and dense, every hit returns the entry asked for, and no entry is
// both retained and evicted or evicted twice.
func TestRingConcurrent(t *testing.T) {
	l := NewLog()
	var mu sync.Mutex
	sunk := make(map[int]bool)
	sink := func(e Entry) {
		mu.Lock()
		defer mu.Unlock()
		if sunk[e.Seq] {
			t.Errorf("seq %d evicted twice", e.Seq)
		}
		sunk[e.Seq] = true
	}
	l.SetRetention(16, sink)
	const writers, per = 4, 400
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(reqEntry(w*per + i))
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := fmt.Sprintf("P-%06d", i%(writers*per))
			if e, ok := l.ByRequestID(id); ok && e.RequestID != id {
				t.Errorf("ByRequestID(%s) returned %s", id, e.RequestID)
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			es := l.Entries()
			for i := 1; i < len(es); i++ {
				if es[i].Seq != es[i-1].Seq+1 {
					t.Errorf("Entries not dense oldest first: seq %d then %d", es[i-1].Seq, es[i].Seq)
					break
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			l.SetRetention(8+i%24, sink)
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	l.SetRetention(16, sink)

	mu.Lock()
	defer mu.Unlock()
	for _, e := range l.Entries() {
		if sunk[e.Seq] {
			t.Errorf("seq %d both retained and evicted", e.Seq)
		}
	}
	if retained := len(l.Entries()); len(sunk)+retained != writers*per {
		t.Errorf("retained %d + evicted %d = %d, want %d", retained, len(sunk), retained+len(sunk), writers*per)
	}
}

// BenchmarkLogRecord is one steady-state Record at the daemons' default
// retention of 4 096 entries (the benchmark's audit.append_ns probe).
func BenchmarkLogRecord(b *testing.B) {
	l := NewLog()
	l.SetRetention(4096, nil)
	e := Entry{Server: "P", Requestor: "u0000001", Operation: "read", Object: "O",
		Group: "Gr000001", RequestID: "P-000001", Spans: make([]Span, 6), ProofTrace: strings.Repeat("x", 400)}
	for i := 0; i < 4096; i++ {
		l.Record(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(e)
	}
}
