// Command benchmark is the repository's benchmark: four fixed-work
// workloads over the coalition policy system, six end-to-end metrics
// measured untraced, and per-layer metrics from a separate traced run
// and isolated probes. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts are printed with every result.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	WALFlush   string `json:"wal_flush,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string // directory for trace files and scratch data
}

func main() {
	var o options
	var trace, calibrate int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, one result line each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "run length on the reference box, set-ups included; sets the fixed op counts")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
	flag.BoolVar(&o.quick, "quick", false, "one small timed round per workload (smoke test, not a measurement)")
	flag.StringVar(&o.out, "out", "out", "directory for trace files and scratch data")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of 3 suite passes, alternating workload order; fail if any pair of set medians differs by more than its bound")
	flag.IntVar(&calibrate, "calibrate", 0, "run the suite N times with N seeds and write calibration.json next to this program's sources")
	verbose := flag.Bool("v", false, "keep the daemons' log output")
	flag.Parse()
	o.trace = trace != 0
	if !*verbose {
		log.SetOutput(io.Discard)
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	switch {
	case selfcheck:
		fatal(runSelfcheck(o))
	case calibrate > 0:
		fatal(runCalibration(o, calibrate))
	}
	specs := workloads
	if o.workload != "" {
		sp := workloadNamed(o.workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		specs = []*spec{sp}
	}
	ok := true
	for _, sp := range specs {
		res, err := runWorkload(context.Background(), sp, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// thisHost reports the machine and the thread count the runs are pinned
// to: min(nproc, 2).
func thisHost() hostFacts {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	return hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

func fatal(err error) {
	if err == nil {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run is everything measured while driving one workload.
type run struct {
	sp   *spec
	sys  system // the last round's stack: the probes work on it
	host hostFacts
	ref  *refKernel
	// timed are the untraced rounds, the source of every end-to-end
	// figure; traced the rounds of a traced run that recorded spans.
	timed, traced []*round
	tr            *tracer
	heapMB        float64
	elapsed       time.Duration
}

// memDelta is the change of runtime.MemStats over one round.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

// runWorkload drives the workload's rounds, each on a stack of its own,
// checks the outputs and reports the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
func runWorkload(ctx context.Context, sp *spec, o options) (*result, error) {
	r := &run{sp: sp, host: thisHost(), ref: newRefKernel()}
	runtime.GOMAXPROCS(r.host.GOMAXPROCS)
	debug.SetGCPercent(100)
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	r.host.WALFlush = sp.walFlush
	e := env{seed: o.seed, quick: o.quick, traced: o.trace, tmp: tmp}

	sc := sp.script(o.seconds, o.quick)
	rounds := sp.rounds
	switch {
	case o.quick:
		rounds = quickRounds
	case o.trace:
		rounds = 2 * tracedRounds
	}
	if o.trace {
		r.tr = newTracer(4 * tracedRounds * sc.ops)
	}
	var seq []int32
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if r.sys != nil {
			if err := r.sys.finish(ctx); err != nil {
				return nil, fmt.Errorf("round %d: end-of-round gate: %w", i, err)
			}
			r.sys = nil
		}
		runtime.GC()
		// Set-up: fixture build → first correct decision served.
		t0 := time.Now()
		sys, err := sp.build(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("round %d: set-up: %w", i+1, err)
		}
		r.sys = sys
		if err := sys.decide(ctx, 0, nil, 0); err != nil {
			return nil, fmt.Errorf("round %d: first decision: %w", i+1, err)
		}
		setup := time.Since(t0)
		if seq == nil {
			// The pool's kinds follow from the seed, so one sequence
			// serves every round.
			if seq, err = buildSeq(rand.New(rand.NewSource(o.seed)), sys.kinds(), sp.mix, sp.zipfS, sc.ops); err != nil {
				return nil, err
			}
		}
		// In a traced run every second round records spans, so both
		// kinds see the same spells of the machine and their difference
		// is what tracing costs.
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = r.tr
			tr.round = int32(i + 1)
		}
		rd := runRound(ctx, sys, seq, sp.conc, sc.every, sc.warm, sc.slice, r.ref, tr)
		rd.setup = setup
		if tr != nil {
			r.traced = append(r.traced, rd)
		} else {
			r.timed = append(r.timed, rd)
		}
	}
	r.elapsed = time.Since(start)
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / 1e6

	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		if err := r.perLayer(ctx, res, o); err != nil {
			return nil, err
		}
	}
	if err := r.sys.finish(ctx); err != nil {
		return nil, fmt.Errorf("end-of-run gate: %w", err)
	}
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}

	e2e := r.endToEnd()
	if !o.trace {
		res.Metrics = e2e
	}
	var failure error
	for _, rd := range append(append([]*round(nil), r.timed...), r.traced...) {
		res.Attempted += len(rd.lat) + len(rd.admin)
		res.Failed += rd.failed
		if failure == nil {
			failure = rd.failure
		}
	}
	res.Correct = res.Failed == 0
	r.print(os.Stdout, o, sc, e2e, res, failure)
	return res, nil
}

// The figures. The rounds of a run repeat the same script from the same
// state, so what they measured at one position of it — one slice of
// decisions, one mutation — are repetitions of one quantity, and the
// figure for the position is their median. Before that each timing is
// adjusted to reference speed (refkernel.go): the machines this runs on
// are shared, and for spells of 50 ms to minutes the same code runs up to
// twice as slowly.

// positions is the median over the rounds of the value at each position
// of a per-round series.
func positions(rounds []*round, n int, at func(rd *round, i int) float64) []float64 {
	out := make([]float64, n)
	v := make([]float64, len(rounds))
	for i := range out {
		for r, rd := range rounds {
			v[r] = at(rd, i)
		}
		out[i] = medianFloat(v)
	}
	return out
}

// sliceWall is how long the round's timed slice s took, in ns.
func (r *round) sliceWall(s int) float64 { return float64(r.wallNs[r.warm/r.slice+s]) }

// sliceSpeed is the mean of the reference readings before and after the
// timed slice s.
func (r *round) sliceSpeed(s int) float64 {
	i := r.warm/r.slice + s
	return (r.speed[i] + r.speed[i+1]) / 2
}

// sliceP50 is the exact median latency in ns of the timed slice s.
func (r *round) sliceP50(s int) float64 {
	from := r.warm + s*r.slice
	return float64(medianInt(r.lat[from : from+r.slice]))
}

// figures are a run's timings over the untraced rounds.
type figures struct {
	setupS, rps, p50us, ackMs, visibleMs float64
}

// figures computes them at reference speed or, with raw, as measured.
func (r *run) figures(raw bool) figures {
	adj := adjust
	if raw {
		adj = func(t, _ float64) float64 { return t }
	}
	rd := r.timed[0]
	slices := len(rd.timedLat()) / rd.slice
	var wall float64
	for _, ns := range positions(r.timed, slices, func(rd *round, s int) float64 { return adj(rd.sliceWall(s), rd.sliceSpeed(s)) }) {
		wall += ns
	}
	p50 := positions(r.timed, slices, func(rd *round, s int) float64 { return adj(rd.sliceP50(s), rd.sliceSpeed(s)) })
	setups := make([]float64, len(r.timed))
	for i, rd := range r.timed {
		setups[i] = adj(rd.setup.Seconds(), rd.meanSpeed())
	}
	return figures{
		setupS:    medianFloat(setups),
		rps:       float64(slices*rd.slice) / (wall / 1e9),
		p50us:     medianFloat(p50) / 1e3,
		ackMs:     adminP50(r.timed, adj, func(s adminSample) int64 { return s.ack - s.start }),
		visibleMs: adminP50(r.timed, adj, func(s adminSample) int64 { return s.visible - s.start }),
	}
}

// endToEnd reports the six end-to-end metrics.
func (r *run) endToEnd() map[string]metric {
	f := r.figures(false)
	return map[string]metric{
		"setup_s":              {f.setupS, "s"},
		"authorize_rps":        {f.rps, "1/s"},
		"authorize_p50_us":     {f.p50us, "us"},
		"admin_ack_p50_ms":     {f.ackMs, "ms"},
		"admin_visible_p50_ms": {f.visibleMs, "ms"},
		"live_heap_mb":         {r.heapMB, "MB"},
	}
}

// adminP50 is the typical latency in ms of a mutation over the verb mix:
// position by position the rounds' median, of these the median per verb,
// averaged over the verbs. Per verb, because the verbs cost different
// amounts (a join re-keys four domains, a leave three) and the median of
// them all would sit in the gap between two modes.
func adminP50(rounds []*round, adj func(t, speed float64) float64, pick func(adminSample) int64) float64 {
	admin := rounds[0].timedAdmin()
	at := positions(rounds, len(admin), func(rd *round, i int) float64 {
		return adj(float64(pick(rd.timedAdmin()[i])), rd.meanSpeed())
	})
	byVerb := map[string][]float64{}
	for i, s := range admin {
		byVerb[s.verb] = append(byVerb[s.verb], at[i]/1e6)
	}
	var sum float64
	for _, v := range byVerb {
		sum += medianFloat(v)
	}
	return sum / float64(len(byVerb))
}

// adminQuantile is the q-quantile of the rounds' pooled timed mutations,
// in ms.
func adminQuantile(rounds []*round, q float64, pick func(adminSample) int64) float64 {
	var all []int64
	for _, rd := range rounds {
		for _, s := range rd.timedAdmin() {
			all = append(all, pick(s))
		}
	}
	return float64(quantile(sortedCopy(all), q)) / 1e6
}

// print writes the human-readable report that precedes the result line.
func (r *run) print(w io.Writer, o options, sc script, e2e map[string]metric, res *result, failure error) {
	fmt.Fprintf(w, "# %s seed=%d: %d untraced + %d traced rounds, each a fresh stack driven through %d warm-up + %d timed authorize ops (%d in flight), one mutation per %d; %.1fs in all\n",
		r.sp.name, o.seed, len(r.timed), len(r.traced), sc.warm, sc.ops-sc.warm, r.sp.conc, sc.every, r.elapsed.Seconds())
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s %s", r.host.NProc, r.host.GOMAXPROCS, r.host.Go, r.host.OSArch)
	if r.host.WALFlush != "" {
		fmt.Fprintf(w, "; %s", r.host.WALFlush)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "# samples per round: %d decisions in %d slices, %d mutations, 1 set-up; every figure is built from the rounds' medians, position by position\n",
		len(r.timed[0].timedLat()), len(r.timed[0].timedLat())/sc.slice, len(r.timed[0].timedAdmin()))
	for i, rd := range r.timed {
		fmt.Fprintf(w, "# round %d as measured: set-up %.3f s, %.1f 1/s, p50 %.1f us, slowdown %.2f\n",
			i+1, rd.setup.Seconds(), float64(len(rd.timedLat()))/rd.wall().Seconds(), float64(medianInt(rd.timedLat()))/1e3, rd.slowdown())
	}
	raw := r.figures(true)
	fmt.Fprintf(w, "# timings are at reference speed; as measured: set-up %.3f s, %.1f 1/s, p50 %.1f us, ack %.3f ms, visible %.3f ms; median slowdown %.2f\n",
		raw.setupS, raw.rps, raw.p50us, raw.ackMs, raw.visibleMs, r.slowdown())
	printMetrics(w, e2e)
	if o.trace {
		printMetrics(w, res.Metrics)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if failure != nil {
		fmt.Fprintf(w, "# first failure: %v\n", failure)
	}
}

// slowdown is the median over the untraced rounds of their slowdown.
func (r *run) slowdown() float64 {
	v := make([]float64, len(r.timed))
	for i, rd := range r.timed {
		v[i] = rd.slowdown()
	}
	return medianFloat(v)
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
