// Package obs is the coalition observability subsystem: a stdlib-only
// metrics registry with atomic counters, gauges and fixed-bucket latency
// histograms, plus HTTP export in Prometheus text format and expvar-style
// JSON (see Handler).
//
// The registry is always injected — there is no package-level registry and
// no global mutable state — so tests, cmd/experiments and multi-server
// simulations each observe exactly the components they wired up. Metrics
// are identified by a name plus an ordered list of label key/value pairs;
// looking a metric up a second time with the same identity returns the
// same instance, so call sites may re-resolve metrics on the hot path
// (one mutex-guarded map lookup) or cache the returned pointer.
//
// Snapshots decouple readers from writers: Registry.Snapshot copies every
// value at one instant, and snapshots (including histograms) merge, which
// is how per-server registries aggregate into coalition-wide numbers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram upper bounds for operation
// latencies, in seconds: 50µs … 10s, roughly ×2.5 per step. They bracket
// everything from a belief-store lookup to a distributed keygen round.
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (open connections, queue
// depth).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative-free
// internally (one atomic counter per bucket plus an overflow bucket) and
// rendered cumulatively on export, Prometheus style. Observe is lock-free.
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.add(v)
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramValue {
	v := HistogramValue{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		v.Counts[i] = c
		v.Count += c
	}
	v.Sum = h.sum.load()
	return v
}

// atomicFloat is a float64 accumulated by CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// metricKey identifies a metric: its name plus canonical label string.
type metricKey struct {
	name   string
	labels string // `k="v",k="v"` in call-site order; "" for no labels
}

func keyOf(name string, labels []string) metricKey {
	if len(labels) == 0 {
		return metricKey{name: name}
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: labels must be key/value pairs, got %d strings", name, len(labels)))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return metricKey{name: name, labels: b.String()}
}

// String renders the key as name or name{k="v"}.
func (k metricKey) String() string {
	if k.labels == "" {
		return k.name
	}
	return k.name + "{" + k.labels + "}"
}

// Registry holds one process's (or one component's) metrics. The zero
// value is not usable; call NewRegistry. A nil *Registry is safe to pass
// around wherever instrumentation is optional — resolving metrics on a
// nil registry returns inert instances that absorb writes.
type Registry struct {
	mu        sync.Mutex
	counters  map[metricKey]*Counter
	gauges    map[metricKey]*Gauge
	hists     map[metricKey]*Histogram
	histOrder map[string][]float64 // name → bounds, for mismatch detection
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[metricKey]*Counter),
		gauges:    make(map[metricKey]*Gauge),
		hists:     make(map[metricKey]*Histogram),
		histOrder: make(map[string][]float64),
	}
}

// Counter returns (creating if needed) the counter with the given name and
// label pairs ("key", "value", ...).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name and
// label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name, bucket upper bounds and label pairs. Bounds must be strictly
// increasing; nil selects DefLatencyBuckets. Every series of one name
// must share one bucket layout (they merge on export).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s: bounds not strictly increasing at %d", name, i))
		}
	}
	if r == nil {
		return newHistogram(bounds)
	}
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		if prev, seen := r.histOrder[name]; seen {
			if len(prev) != len(bounds) {
				panic(fmt.Sprintf("obs: histogram %s: conflicting bucket layouts", name))
			}
			for i := range prev {
				if prev[i] != bounds[i] {
					panic(fmt.Sprintf("obs: histogram %s: conflicting bucket layouts", name))
				}
			}
		} else {
			r.histOrder[name] = bounds
		}
		h = newHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// MetricValue is one scalar metric in a snapshot.
type MetricValue struct {
	// Name is the full identity, e.g. `authz_denied_total{step="step4_acl"}`.
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram series in a snapshot.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket (non-cumulative); Counts[len(Bounds)] is the
	// overflow (+Inf) bucket.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// within the winning bucket, Prometheus histogram_quantile style. Values
// in the overflow bucket report the last finite bound.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (h.Bounds[i]-lo)*frac
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, ordered by name, safe to
// serialize (the daemon's "stats" command ships one as JSON).
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies every metric at one instant.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for k, c := range r.counters {
		s.Counters = append(s.Counters, MetricValue{Name: k.String(), Value: c.Value()})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: k.String(), Value: g.Value()})
	}
	for k, h := range r.hists {
		hv := h.Snapshot()
		hv.Name = k.String()
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterValue returns the named counter's value in the snapshot (0 when
// absent). The name must be the full identity including labels.
func (s Snapshot) CounterValue(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// HistogramValueOf returns the named histogram series in the snapshot.
func (s Snapshot) HistogramValueOf(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}
