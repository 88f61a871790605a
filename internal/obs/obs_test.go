package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket-assignment convention:
// upper bounds are inclusive (Prometheus le-semantics), values above the
// last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{
		0.5, // → bucket 0 (≤1)
		1,   // → bucket 0: bounds are inclusive
		1.5, // → bucket 1 (≤2)
		2,   // → bucket 1
		3,   // → bucket 2 (≤4)
		4,   // → bucket 2
		5,   // → overflow
		100, // → overflow
	} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if math.Abs(s.Sum-117.0) > 1e-9 {
		t.Errorf("sum = %g, want 117", s.Sum)
	}
}

// TestHistogramQuantile sanity-checks the interpolated quantile estimate.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in the first bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Errorf("p50 = %g, want within (0, 10]", q)
	}
	h.Observe(25)
	s = h.Snapshot()
	if q := s.Quantile(1.0); q <= 20 || q > 30 {
		t.Errorf("p100 = %g, want within (20, 30]", q)
	}
	if (HistogramValue{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestConcurrentIncrements exercises counters, gauges and histograms from
// many goroutines; run with -race. Totals must be exact (no lost updates).
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-resolving by name on every iteration exercises the
				// registry map under contention, not just the atomics.
				r.Counter("c", "worker", "shared").Inc()
				r.Gauge("g").Inc()
				r.Histogram("h", []float64{0.5, 1.5}, "op", "x").Observe(1)
			}
		}()
	}
	wg.Wait()
	const want = workers * perWorker
	if got := r.Counter("c", "worker", "shared").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("g").Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	hs := r.Histogram("h", []float64{0.5, 1.5}, "op", "x").Snapshot()
	if hs.Count != want {
		t.Errorf("histogram count = %d, want %d", hs.Count, want)
	}
	if hs.Counts[1] != want {
		t.Errorf("histogram bucket ≤1.5 = %d, want %d", hs.Counts[1], want)
	}
	if math.Abs(hs.Sum-float64(want)) > 1e-6 {
		t.Errorf("histogram sum = %g, want %d", hs.Sum, want)
	}
}

// TestNilRegistry verifies nil-registry writes are absorbed silently, so
// instrumentation call sites never need nil guards.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h", nil).Observe(1)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

// TestPrometheusExposition checks the text format: TYPE lines, labeled
// series, cumulative buckets, sum/count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("daemon_commands_total", "cmd", "write").Add(2)
	r.Gauge("transport_open_conns").Set(3)
	h := r.Histogram("authz_step_seconds", []float64{0.001, 0.01}, "step", "step4_acl")
	h.Observe(0.0005)
	h.Observe(0.5)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE daemon_commands_total counter",
		`daemon_commands_total{cmd="write"} 2`,
		"# TYPE transport_open_conns gauge",
		"transport_open_conns 3",
		"# TYPE authz_step_seconds histogram",
		`authz_step_seconds_bucket{step="step4_acl",le="0.001"} 1`,
		`authz_step_seconds_bucket{step="step4_acl",le="0.01"} 1`,
		`authz_step_seconds_bucket{step="step4_acl",le="+Inf"} 2`,
		`authz_step_seconds_count{step="step4_acl"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestHandlerEndpoints drives the HTTP mux: /metrics, /debug/vars and the
// pprof index must all answer.
func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "x 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: code %d", code)
	}
	var vars struct {
		Metrics Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Metrics.CounterValue("x") != 1 {
		t.Errorf("/debug/vars metrics = %+v", vars.Metrics)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}
