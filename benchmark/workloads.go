package main

import (
	"context"

	"jointadmin/internal/sim/load"
)

// A run is spec.rounds rounds of identical, fixed work, each on a
// freshly built stack. A traced run drives tracedRounds rounds untraced
// and as many traced, -quick quickRounds small ones.
const (
	tracedRounds = 2
	quickRounds  = 2
	// nominalSeconds is the run length the specs' epoch counts are sized
	// for on the 2-core reference box, set-ups included.
	nominalSeconds = 20
)

// env is what a workload's builder gets to know about the run.
type env struct {
	seed   int64
	quick  bool
	traced bool
	tmp    string // scratch directory inside the checkout
}

// spec is one workload. The op counts are constants, so every run of a
// commit does the same work.
type spec struct {
	name string
	why  string
	// mix is the share of each request kind; zipfS skews the choice of
	// pooled request within a kind.
	mix   []share
	zipfS float64
	// every is the number of authorize operations per admin mutation: one
	// epoch. A round is one warm-up epoch plus epochs timed ones at
	// nominalSeconds; cycle is the length of the stack's verb cycle, and
	// the timed epochs are a whole number of cycles.
	every, epochs, cycle int
	// rounds is the number of rounds of an untraced run: 8 where a
	// set-up takes half a second or more, 16 where it takes a tenth.
	rounds int
	// conc is the number of authorize calls in flight: one in-process
	// caller, two over the single mux connection of the wire workload.
	conc int
	// slice is the number of decisions whose time is compared across the
	// rounds as one position, about 10–20 ms of work; it divides every.
	slice int
	// walFlush states the write-ahead log's flush policy where the
	// workload has one; it is printed with every result.
	walFlush string
	// quickEvery replaces every under -quick.
	quickEvery int
	build      func(ctx context.Context, e env) (system, error)
}

var loadMix = []share{{"read", 0.55}, {"selective", 0.10}, {"deny", 0.05}, {"write", 0.30}}

var workloads = []*spec{
	{
		name: "warm_decide",
		why:  "steady in-process decisions on a warm cache with rare mutations: authz leaf checks and signature verification do the work; the bypass for every write-path change",
		mix:  loadMix, zipfS: 1.2, every: 2500, epochs: 9, cycle: 3, rounds: 8, conc: 1, slice: 250,
		quickEvery: 1000,
		build: func(_ context.Context, e env) (system, error) {
			p := load.LoadProfile{Principals: 100000, Objects: 1000, PoolSize: 256, ZipfS: 1.2, Seed: e.seed}
			if e.quick {
				p.Principals, p.Objects, p.PoolSize = 5000, 100, 64
			}
			return newInproc(p)
		},
	},
	{
		name: "churn_publish",
		why:  "a mutation every 2000 decisions over a pool larger than what survives a swap: residual recompilation, snapshot sealing and cold re-verification dominate",
		mix:  loadMix, zipfS: 1.1, every: 2000, epochs: 6, cycle: 3, rounds: 8, conc: 1, slice: 125,
		quickEvery: 400,
		build: func(_ context.Context, e env) (system, error) {
			p := load.LoadProfile{Principals: 100000, Objects: 2000, PoolSize: 1024, ZipfS: 1.1, Seed: e.seed}
			if e.quick {
				p.Principals, p.Objects, p.PoolSize = 5000, 200, 128
			}
			return newInproc(p)
		},
	},
	{
		name:  "wire_replicated",
		why:   "pre-signed requests to a follower over localhost TCP while the durable writer takes mutations: transport, daemon, wal and replication dominate; ack and visible differ only here",
		mix:   []share{{"read", 0.60}, {"write", 0.25}, {"delegated", 0.10}, {"deny", 0.05}},
		zipfS: 1.2, every: 500, epochs: 9, cycle: 3, rounds: 16, conc: 2, slice: 50,
		quickEvery: 150, walFlush: walFlushPolicy,
		build: func(ctx context.Context, e env) (system, error) { return newWire(ctx, e.tmp) },
	},
	{
		name:  "membership_dynamics",
		why:   "sign-per-request reads and writes through Daemon.Handle while a fourth domain joins and leaves: re-key, re-issuance, re-anchoring and the dynamics gate dominate",
		mix:   []share{{"read", 0.80}, {"write", 0.20}},
		zipfS: 1.2, every: 20, epochs: 50, cycle: 2, rounds: 16, conc: 1, slice: 20,
		quickEvery: 20,
		build:      func(_ context.Context, e env) (system, error) { return newDynamics(e.traced) },
	},
}

func workloadNamed(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// script is the fixed work of one round.
type script struct {
	ops   int // authorize operations, warm-up included
	every int // operations per mutation
	warm  int // operations of the warm-up epoch
	slice int // operations per slice
}

// script sizes a round for a run of the given length.
func (sp *spec) script(seconds int, quick bool) script {
	if quick {
		slice := sp.slice
		if slice > sp.quickEvery {
			slice = sp.quickEvery
		}
		return script{ops: (1 + sp.cycle) * sp.quickEvery, every: sp.quickEvery, warm: sp.quickEvery, slice: slice}
	}
	epochs := sp.epochs * seconds / nominalSeconds / sp.cycle * sp.cycle
	if epochs < sp.cycle {
		epochs = sp.cycle
	}
	return script{ops: (1 + epochs) * sp.every, every: sp.every, warm: sp.every, slice: sp.slice}
}
