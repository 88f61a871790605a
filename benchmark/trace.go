package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Spans of one
// operation share Round and Req (decisions count up from 1, mutations
// down from -1, in every round anew); Parent is the ID of the span that caused this one
// (0 for the operation's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	round int32 // the round being driven; rounds run one after another
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps one public call in a span.
func (t *tracer) call(name string, parent, req int32, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part its children cover.
type spanStat struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`

	durs []int64
}

// stats folds the recorded spans into per-name totals, ordered by self
// time. The layer of a span is its name up to the first dot.
func (t *tracer) stats() []*spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNs[s.Parent] += s.End - s.Start
	}
	byName := map[string]*spanStat{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			st = &spanStat{Name: s.Name, Layer: layer}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		self := d - childNs[s.ID]
		if self < 0 {
			self = 0
		}
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(self) / 1e6
		st.durs = append(st.durs, d)
	}
	out := make([]*spanStat, 0, len(byName))
	for _, st := range byName {
		st.P50Us = float64(medianInt(st.durs)) / 1e3
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// p50Of returns the median duration of the spans named name, in
// nanoseconds (0 when none were recorded).
func p50Of(stats []*spanStat, name string) float64 {
	for _, st := range stats {
		if st.Name == name {
			return st.P50Us * 1e3
		}
	}
	return 0
}

// maxSpansWritten bounds the trace file: the aggregates cover every span,
// the file carries the first operations in full.
const maxSpansWritten = 20000

type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      hostFacts          `json:"host"`
	Spans     int                `json:"spans_recorded"`
	ByName    []*spanStat        `json:"by_name"`
	SelfMs    map[string]float64 `json:"self_ms_by_layer"`
	PerLayer  map[string]metric  `json:"per_layer"`
	Counts    map[string]int     `json:"sample_counts"`
	FirstSpan []span             `json:"first_spans"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir string, tf traceFile) error {
	tf.ByName = t.stats()
	tf.SelfMs = map[string]float64{}
	for _, st := range tf.ByName {
		tf.SelfMs[st.Layer] += st.SelfMs
	}
	t.mu.Lock()
	tf.Spans = len(t.spans)
	n := len(t.spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	tf.FirstSpan = t.spans[:n]
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), body, 0o644)
}
