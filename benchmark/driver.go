package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// system is one workload's stack as the driver sees it: a pool of
// requests with known outcomes, a serving node that decides them, and an
// admin path that mutates the policy under it.
type system interface {
	// kinds names the kind of every pooled request; the driver draws
	// operations by kind share and zipf rank within the kind.
	kinds() []string
	// decide has the serving node decide pooled request k and fails when
	// the outcome is not the pool's expected one. With a tracer it
	// records one span per public call under operation req.
	decide(ctx context.Context, k int, tr *tracer, req int32) error
	// mutate submits admin mutation n and returns once acknowledged.
	mutate(ctx context.Context, n int, tr *tracer, req int32) (ack, error)
	// probe fills l with the per-layer metrics of the stack's layers,
	// after the rounds of a traced run r.
	probe(ctx context.Context, l layers, r *run, o options) error
	// finish runs the workload's end-of-run gate (nil when it has none)
	// and releases the stack.
	finish(ctx context.Context) error
}

// ack is an acknowledged mutation.
type ack struct {
	verb string
	// acked is when the acknowledgement arrived, for a stack that goes on
	// working after it before mutate returns; zero means on return.
	acked time.Time
	// covered reports whether the serving node's published
	// (Epoch, Watermark) covers the mutation.
	covered func() bool
	// gate, when set, runs once the mutation is covered: the revoked
	// request must now be denied on the serving node.
	gate func(ctx context.Context) error
}

// visiblePoll is the interval at which the admin worker re-reads the
// serving node's published version after an acknowledgement.
const visiblePoll = 200 * time.Microsecond

// adminSample is one mutation's timeline, in ns since the round began.
type adminSample struct {
	verb                string
	start, ack, visible int64
}

// round is the outcome of driving one freshly built stack through the
// run's fixed script: warm-up epochs, then timed epochs. An epoch is
// `every` decisions with one mutation submitted as its first decision
// starts. Every round of a run starts from the same state and executes
// the same operations, so what round r measured at a position of the
// script is a repetition of what every other round measured there.
type round struct {
	setup time.Duration // fixture build → first correct decision served
	every int
	slice int     // operations per slice; divides every
	warm  int     // operations of the warm-up epochs, not part of any figure
	lat   []int64 // latency of operation i
	start []int64 // start of operation i, ns since the round began
	// wallNs[s] is how long slice s took; speed[s] and speed[s+1] are the
	// reference kernel's readings before and after it, in ns per step.
	wallNs []int64
	speed  []float64
	// admin[n] is the round's n-th mutation; verb "" when it failed.
	admin   []adminSample
	late    int // mutations that fell due while the previous one was in flight
	failed  int
	failure error // first failure
	mem     memDelta
}

func (r *round) fail(err error) {
	r.failed++
	if r.failure == nil {
		r.failure = err
	}
}

// meanSpeed is the mean of the round's reference readings: the speed its
// set-up and its mutations, which no readings bracket, are taken to have
// run at.
func (r *round) meanSpeed() float64 {
	var sum float64
	for _, s := range r.speed {
		sum += s
	}
	return sum / float64(len(r.speed))
}

// slowdown is the round's mean reference reading over the reference
// box's.
func (r *round) slowdown() float64 { return r.meanSpeed() / refNominalNs }

// timedLat are the latencies of the timed operations.
func (r *round) timedLat() []int64 { return r.lat[r.warm:] }

// timedAdmin are the mutations of the timed epochs.
func (r *round) timedAdmin() []adminSample { return r.admin[r.warm/r.every:] }

// wall is how long the timed operations took.
func (r *round) wall() time.Duration {
	var ns int64
	for _, d := range r.wallNs[r.warm/r.slice:] {
		ns += d
	}
	return time.Duration(ns)
}

// runRound executes seq once: conc closed-loop callers draw operations
// from it, and the admin worker submits one mutation each time the count
// of started decisions reaches a multiple of every — never on a timer,
// so every round performs the same operations at the same points. The
// first warm operations and their mutations warm the stack up.
func runRound(ctx context.Context, sys system, seq []int32, conc, every, warm, slice int, ref *refKernel, tr *tracer) *round {
	r := &round{every: every, warm: warm, slice: slice,
		lat: make([]int64, len(seq)), start: make([]int64, len(seq)), admin: make([]adminSample, len(seq)/every)}
	due := make(chan int, len(r.admin)) // sized to the round's mutations: the callers never block on it
	var mu sync.Mutex                   // guards r.failed, r.failure, r.late
	var busy atomic.Bool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()

	var admin sync.WaitGroup
	admin.Add(1)
	go func() {
		defer admin.Done()
		for n := range due {
			busy.Store(true)
			s, err := runMutation(ctx, sys, n, t0, tr)
			busy.Store(false)
			if err != nil {
				mu.Lock()
				r.fail(err)
				mu.Unlock()
				continue
			}
			r.admin[n] = s
		}
	}()

	var next atomic.Int64
	caller := func(stop int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= stop {
				next.Add(-1)
				return
			}
			if i%every == 0 {
				if busy.Load() {
					mu.Lock()
					r.late++
					mu.Unlock()
				}
				due <- i / every
			}
			begin := time.Now()
			err := sys.decide(ctx, int(seq[i]), tr, int32(i+1))
			r.lat[i] = int64(time.Since(begin))
			r.start[i] = int64(begin.Sub(t0))
			if err != nil {
				mu.Lock()
				r.fail(fmt.Errorf("operation %d (pool %d): %w", i, seq[i], err))
				mu.Unlock()
			}
		}
	}
	r.speed = append(r.speed, ref.sample())
	for stop := slice; stop <= len(seq); stop += slice {
		begin := time.Now()
		if conc == 1 {
			caller(stop)
		} else {
			var callers sync.WaitGroup
			for c := 0; c < conc; c++ {
				callers.Add(1)
				go func() {
					defer callers.Done()
					caller(stop)
				}()
			}
			callers.Wait()
		}
		r.wallNs = append(r.wallNs, int64(time.Since(begin)))
		r.speed = append(r.speed, ref.sample())
	}
	close(due)
	admin.Wait()
	runtime.ReadMemStats(&after)
	r.mem = memDelta{after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC, after.PauseTotalNs - before.PauseTotalNs}
	return r
}

// runMutation submits one mutation, then polls until the serving node
// has published a version that covers it and runs the mutation's gate.
func runMutation(ctx context.Context, sys system, n int, t0 time.Time, tr *tracer) (adminSample, error) {
	req := int32(-(n + 1)) // mutations number downward, decisions upward
	root := tr.begin("load.mutation", 0, req)
	defer tr.end(root)
	s := adminSample{start: int64(time.Since(t0))}
	a, err := sys.mutate(ctx, n, tr, root)
	s.ack = int64(time.Since(t0))
	if !a.acked.IsZero() {
		s.ack = int64(a.acked.Sub(t0))
	}
	if err != nil {
		return s, fmt.Errorf("mutation %d: %w", n, err)
	}
	s.verb = a.verb
	wait := tr.begin("load.visible_wait", root, req)
	deadline := time.Now().Add(10 * time.Second)
	for !a.covered() {
		if time.Now().After(deadline) {
			return s, fmt.Errorf("mutation %d (%s): not visible on the serving node after 10s", n, a.verb)
		}
		time.Sleep(visiblePoll)
	}
	s.visible = int64(time.Since(t0))
	tr.end(wait)
	if a.gate != nil {
		if err := a.gate(ctx); err != nil {
			return s, fmt.Errorf("mutation %d (%s): %w", n, a.verb, err)
		}
	}
	return s, nil
}

// share is one kind's part of the request mix.
type share struct {
	kind string
	frac float64
}

// buildSeq draws n pool indices: the kinds appear in exactly their mix
// shares (a shuffled deck, not independent draws, so the cost of the mix
// does not move with the seed) and, within a kind, pooled requests are
// picked by zipf rank.
func buildSeq(rng *rand.Rand, kinds []string, mix []share, zipfS float64, n int) ([]int32, error) {
	byKind := map[string][]int32{}
	for i, k := range kinds {
		byKind[k] = append(byKind[k], int32(i))
	}
	deck := make([]int, 0, n)
	for ki, m := range mix {
		if len(byKind[m.kind]) == 0 {
			return nil, fmt.Errorf("the pool holds no %q request", m.kind)
		}
		c := int(m.frac*float64(n) + 0.5)
		for j := 0; j < c && len(deck) < n; j++ {
			deck = append(deck, ki)
		}
	}
	for len(deck) < n {
		deck = append(deck, 0)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	zipf := make([]*rand.Zipf, len(mix))
	for ki, m := range mix {
		if n := len(byKind[m.kind]); n > 1 {
			zipf[ki] = rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		}
	}
	seq := make([]int32, n)
	for i, ki := range deck {
		sub := byKind[mix[ki].kind]
		if zipf[ki] != nil {
			seq[i] = sub[zipf[ki].Uint64()]
		} else {
			seq[i] = sub[0]
		}
	}
	return seq, nil
}
