// Package audit provides the append-only decision log of Section 2: some
// coalitions jointly own "auditing applications that are used to ensure
// that all domains are adhering to predefined access policies". Every
// authorization decision is recorded together with its full proof trace,
// so an auditor can re-check the derivation that justified each approval
// and see exactly why denials happened.
//
// What the paper requires is that the derivation be recoverable, not that
// the decision render it: a decider records the proof itself (Entry's
// Derivation) and the log renders it into ProofTrace only in the copies
// it hands out. The log keeps the newest entries of a retention bound in
// a ring, so recording is O(1) at any bound, and indexes them by request
// ID.
package audit

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"jointadmin/internal/clock"
)

// Outcome classifies a decision.
type Outcome int

// Decision outcomes.
const (
	Approved Outcome = iota + 1
	Denied
	RevocationRecorded
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Approved:
		return "APPROVED"
	case Denied:
		return "DENIED"
	case RevocationRecorded:
		return "REVOCATION"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Span is one timed protocol step within a request's evaluation: the
// derivation-as-audit-artifact view of the authorization protocol. The
// authz server records one span per protocol step (Appendix E Steps 1–4,
// plus freshness and execution), each with its wall-clock duration and
// outcome, so an operator can see exactly where a request was denied and
// how long every step took.
type Span struct {
	// Step names the protocol step (e.g. "step1_certs", "step4_acl").
	Step string `json:"step"`
	// Outcome is "ok" for a step that passed, "denied" for the step that
	// rejected the request.
	Outcome string `json:"outcome"`
	// Detail carries the denial reason on the failing step.
	Detail string `json:"detail,omitempty"`
	// Duration is the step's wall-clock time.
	Duration time.Duration `json:"duration"`
}

// String renders the span as "step outcome duration".
func (s Span) String() string {
	out := fmt.Sprintf("%s %s %s", s.Step, s.Outcome, s.Duration.Round(time.Microsecond))
	if s.Detail != "" {
		out += " (" + s.Detail + ")"
	}
	return out
}

// Entry is one audited decision.
type Entry struct {
	Seq       int
	At        clock.Time
	Outcome   Outcome
	Server    string
	Requestor string
	Operation string
	Object    string
	Group     string
	Reason    string
	// RequestID correlates this entry with the daemon's metrics and logs:
	// the authz server assigns one per evaluated request.
	RequestID string
	// Spans is the step-labeled timing trace of the request's evaluation,
	// ordered as the protocol ran.
	Spans []Span
	// ProofTrace is the rendered derivation that justified the decision.
	ProofTrace string
	// Derivation, when set, is the proof itself, rendered into ProofTrace
	// when the entry is read: every copy the Log hands out (Entries,
	// ByRequestID, ByOutcome, the retention sink) carries the text and a
	// nil Derivation. It must render the same text however late it is
	// read. Entries decoded from the WAL carry text only.
	Derivation fmt.Stringer `json:"-"`
}

// rendered returns e with its derivation rendered into ProofTrace.
func rendered(e Entry) Entry {
	if e.Derivation != nil {
		e.ProofTrace, e.Derivation = e.Derivation.String(), nil
	}
	return e
}

// String renders a one-line summary.
func (e Entry) String() string {
	id := ""
	if e.RequestID != "" {
		id = " [" + e.RequestID + "]"
	}
	return fmt.Sprintf("#%d %s %s%s: %s %q on %q via %s (%s)",
		e.Seq, e.At, e.Outcome, id, e.Requestor, e.Operation, e.Object, e.Group, e.Reason)
}

// TraceString renders the span trace as a single "a; b; c" line ("" when
// the entry has no spans).
func (e Entry) TraceString() string {
	if len(e.Spans) == 0 {
		return ""
	}
	parts := make([]string, len(e.Spans))
	for i, s := range e.Spans {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// Log is a thread-safe append-only audit log. By default it grows
// without bound; long-running daemons cap it with SetRetention. A bounded
// log is a ring: it grows by append up to the bound — never allocating
// the bound ahead of use — and then each Record overwrites the oldest
// entry in place. Evicted entries are gone from memory; whether they
// survive elsewhere is the sink's business (a daemon's durable copy is
// its write-ahead log).
type Log struct {
	mu  sync.Mutex
	seq int
	// ring holds the retained entries, oldest at ring[head]. head is 0
	// unless the ring is full and has wrapped. Retained sequence numbers
	// are dense: ring's logical entry i has Seq seq-len(ring)+1+i.
	ring []Entry
	head int
	// byID maps a request ID to the Seq of the newest retained entry
	// carrying it.
	byID map[string]int
	// max caps len(ring); 0 is unbounded.
	max int
	// sink receives evicted entries (outside the lock).
	sink func(Entry)
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// SetRetention bounds the in-memory log to the newest max entries
// (0 removes the bound). sink, when non-nil, receives each evicted entry
// — oldest first, with its derivation rendered — and is called without
// the log's lock held. If the log already exceeds the bound, the oldest
// entries are evicted immediately.
func (l *Log) SetRetention(max int, sink func(Entry)) {
	l.mu.Lock()
	l.max = max
	l.sink = sink
	all := l.orderedLocked()
	var dropped []Entry
	if max > 0 && len(all) > max {
		dropped = all[:len(all)-max]
		for _, e := range dropped {
			l.unindexLocked(e)
		}
		// A fresh array: the old one would pin the dropped entries.
		all = append([]Entry(nil), all[len(dropped):]...)
	}
	l.ring, l.head = all, 0
	l.mu.Unlock()
	if sink != nil {
		for _, e := range dropped {
			sink(rendered(e))
		}
	}
}

// Record appends an entry, assigning its sequence number. At the
// retention bound it overwrites the oldest entry, which goes to the sink.
func (l *Log) Record(e Entry) int {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	var dropped Entry
	full := l.max > 0 && len(l.ring) >= l.max
	if full {
		dropped = l.ring[l.head]
		l.unindexLocked(dropped)
		l.ring[l.head] = e
		l.head = (l.head + 1) % len(l.ring)
	} else {
		l.ring = append(l.ring, e)
	}
	if e.RequestID != "" {
		if l.byID == nil {
			l.byID = make(map[string]int)
		}
		l.byID[e.RequestID] = e.Seq
	}
	sink := l.sink
	l.mu.Unlock()
	if full && sink != nil {
		sink(rendered(dropped))
	}
	return e.Seq
}

// unindexLocked drops e's request ID from the index unless a newer entry
// has taken it over.
func (l *Log) unindexLocked(e Entry) {
	if seq, ok := l.byID[e.RequestID]; ok && seq == e.Seq {
		delete(l.byID, e.RequestID)
	}
}

// runsLocked returns the retained entries as two runs of the ring that,
// read in order, list them oldest first.
func (l *Log) runsLocked() [2][]Entry {
	return [2][]Entry{l.ring[l.head:], l.ring[:l.head]}
}

// orderedLocked returns a copy of the retained entries, oldest first.
func (l *Log) orderedLocked() []Entry {
	runs := l.runsLocked()
	return append(append(make([]Entry, 0, len(l.ring)), runs[0]...), runs[1]...)
}

// Entries returns a copy of all entries, oldest first.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	out := l.orderedLocked()
	l.mu.Unlock()
	for i := range out {
		out[i] = rendered(out[i])
	}
	return out
}

// ByRequestID returns the entry recorded for the given request ID — the
// newest one, should the ID repeat (request IDs restart with the process,
// and a daemon replays its predecessor's entries from the WAL).
func (l *Log) ByRequestID(id string) (Entry, bool) {
	l.mu.Lock()
	seq, ok := l.byID[id]
	var e Entry
	if ok {
		i := seq - (l.seq - len(l.ring) + 1)
		e = l.ring[(l.head+i)%len(l.ring)]
	}
	l.mu.Unlock()
	if !ok {
		return Entry{}, false
	}
	return rendered(e), true
}

// ByOutcome returns the entries with the given outcome, oldest first.
func (l *Log) ByOutcome(o Outcome) []Entry {
	l.mu.Lock()
	var out []Entry
	for _, run := range l.runsLocked() {
		for _, e := range run {
			if e.Outcome == o {
				out = append(out, e)
			}
		}
	}
	l.mu.Unlock()
	for i := range out {
		out[i] = rendered(out[i])
	}
	return out
}

// Render formats the full log for human review: one summary line per
// entry, followed by the indented step trace when one was recorded.
func (l *Log) Render() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, run := range l.runsLocked() {
		for _, e := range run {
			b.WriteString(e.String())
			b.WriteByte('\n')
			if tr := e.TraceString(); tr != "" {
				b.WriteString("    trace: ")
				b.WriteString(tr)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}
