package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var endToEndNames = []string{"setup_s", "authorize_rps", "authorize_p50_us", "admin_ack_p50_ms", "admin_visible_p50_ms", "live_heap_mb"}

// TestQuickSuite drives every workload in -quick mode, untraced on two
// seeds (the second is held out: no constant was sized on it) and traced
// once, and requires the correctness gate to stay green.
func TestQuickSuite(t *testing.T) {
	for _, sp := range workloads {
		for _, seed := range []int64{1, 20020702} {
			res, err := runWorkload(context.Background(), sp, options{seed: seed, seconds: 1, quick: true, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed %d: correct=%v failed=%d attempted=%d", sp.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEndNames) {
				t.Errorf("%s: %d end-to-end metrics, want %d", sp.name, len(res.Metrics), len(endToEndNames))
			}
			for _, name := range endToEndNames {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("%s seed %d: metric %s = %+v, want a positive value with a unit", sp.name, seed, name, m)
				}
			}
		}

		out := t.TempDir()
		res, err := runWorkload(context.Background(), sp, options{seed: 1, seconds: 1, quick: true, trace: true, out: out})
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: incorrect outputs (%d failed)", sp.name, res.Failed)
		}
		if len(res.Metrics) != len(layerMetrics) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", sp.name, len(res.Metrics), len(layerMetrics))
		}
		for _, m := range layerMetrics {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s traced: metric %s = %+v, want unit %s", sp.name, m.name, got, m.unit)
			}
		}
		if late := res.Metrics["load.mutations_late"].Value; late != 0 {
			t.Errorf("%s: %v mutations fell due while the previous one was in flight", sp.name, late)
		}
		var tf traceFile
		body, err := os.ReadFile(filepath.Join(out, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &tf); err != nil {
			t.Fatalf("%s trace file: %v", sp.name, err)
		}
		if tf.Spans == 0 || len(tf.ByName) == 0 || len(tf.SelfMs) == 0 {
			t.Errorf("%s trace file: %d spans, %d names, %d layers", sp.name, tf.Spans, len(tf.ByName), len(tf.SelfMs))
		}
	}
}

// TestContractNames keeps BENCHMARK.json and the program's tables in
// step: the same workloads, end-to-end metrics and per-layer metrics.
func TestContractNames(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	var names []string
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(names, endToEndNames) {
		t.Errorf("end-to-end metrics: BENCHMARK.json has %v, want %v", names, endToEndNames)
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
	}
}

// TestBuildSeq: the same seed draws the same operations, another seed
// draws others, and every kind appears in exactly its share.
func TestBuildSeq(t *testing.T) {
	kinds := make([]string, 100)
	for i := range kinds {
		kinds[i] = loadMix[i%len(loadMix)].kind
	}
	draw := func(seed int64) []int32 {
		seq, err := buildSeq(rand.New(rand.NewSource(seed)), kinds, loadMix, 1.2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same sequence")
	}
	got := map[string]int{}
	for _, k := range a {
		got[kinds[k]]++
	}
	for _, m := range loadMix {
		if want := int(m.frac*2000 + 0.5); got[m.kind] != want {
			t.Errorf("kind %s drawn %d times, want %d", m.kind, got[m.kind], want)
		}
	}
	if _, err := buildSeq(rand.New(rand.NewSource(1)), []string{"read"}, loadMix, 1.2, 10); err == nil {
		t.Error("a pool without one of the mix's kinds was accepted")
	}
}

// TestPositions: the figure for a position of the script is the median
// of what the rounds measured there, whatever the other positions did.
func TestPositions(t *testing.T) {
	rounds := []*round{{wallNs: []int64{10, 50}, slice: 1}, {wallNs: []int64{30, 40}, slice: 1}, {wallNs: []int64{20, 90}, slice: 1}}
	got := positions(rounds, 2, func(rd *round, s int) float64 { return rd.sliceWall(s) })
	if !reflect.DeepEqual(got, []float64{20, 50}) {
		t.Errorf("positions = %v, want [20 50]", got)
	}
}

// TestAdjust: a reading at the reference box's speed leaves a timing as
// measured, a slower one takes refShare of the slowdown out.
func TestAdjust(t *testing.T) {
	if got := adjust(100, refNominalNs); got != 100 {
		t.Errorf("adjust at nominal speed = %v, want 100", got)
	}
	if got, want := adjust(100, 2*refNominalNs), 100/(1+refShare); got != want {
		t.Errorf("adjust at half speed = %v, want %v", got, want)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q3 != 7 {
		t.Errorf("quartiles of [2 4 4 5 9] = %v, %v; want 3, 7", q1, q3)
	}
}
