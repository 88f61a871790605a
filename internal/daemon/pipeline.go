// The wire serve pipeline shared by the writer daemon and the follower:
// receive loop → bounded worker pool → ID-keyed dedup → reply on the
// command's own connection. Extracting it keeps the
// request/reply semantics — every reply echoes its Command.ID, duplicate
// commands replay the recorded answer instead of re-executing — identical
// across every role that speaks the command protocol.

package daemon

import (
	"context"
	"errors"
	"log"
	"runtime"
	"sync"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// commandNode is the transport surface the pipeline drives: receive
// commands, answer each on the connection it arrived on.
// *transport.TCPNode implements it; tests supply fakes.
type commandNode interface {
	RecvContext(ctx context.Context) (transport.Envelope, error)
	Reply(env transport.Envelope, kind string, payload []byte) error
}

var _ commandNode = (*transport.TCPNode)(nil)

// Dedup metric names.
const (
	// MetricDedupReplays counts duplicate commands answered from the
	// dedup cache instead of re-executed.
	MetricDedupReplays = "daemon_dedup_replays_total"
	// metricDedupEvictions counts completed replies aged out of the
	// bounded dedup cache.
	metricDedupEvictions = "daemon_dedup_evictions_total"
	// metricDedupEntries gauges the dedup cache occupancy (in-flight
	// commands included).
	metricDedupEntries = "daemon_dedup_entries"
)

// pipelineConfig assembles one serve pipeline.
type pipelineConfig struct {
	// Handler executes one decoded command (Daemon.Handle or
	// Follower.Handle). It must be safe for concurrent use.
	Handler func(ctx context.Context, cmd Command) Reply
	// Workers bounds concurrent command handling (default GOMAXPROCS).
	Workers int
	// DedupCap bounds the remembered-reply cache (default
	// defaultDedupCap).
	DedupCap int
	// Metrics receives the dedup counters; nil drops them.
	Metrics *obs.Registry
	// Intercept, when set, sees every inbound envelope before the command
	// path; returning true consumes it (replication frames ride the same
	// node but bypass the worker pool).
	Intercept func(env transport.Envelope) bool
	// Tag prefixes the pipeline's log lines ("daemon", "follower", ...).
	Tag string
}

// pipeline is one running serve loop's machinery.
type pipeline struct {
	cfg   pipelineConfig
	dedup *dedupCache

	// The dedup series, resolved once.
	replays, evictions *obs.Counter
	entries            *obs.Gauge
}

// newPipeline builds a pipeline; Serve runs it.
func newPipeline(cfg pipelineConfig) *pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Tag == "" {
		cfg.Tag = "daemon"
	}
	return &pipeline{cfg: cfg, dedup: newDedupCache(cfg.DedupCap),
		replays:   cfg.Metrics.Counter(MetricDedupReplays),
		evictions: cfg.Metrics.Counter(metricDedupEvictions),
		entries:   cfg.Metrics.Gauge(metricDedupEntries)}
}

// Serve answers commands on the node until it closes or the context is
// canceled, each on the connection it arrived on (commandNode.Reply).
//
// Commands are pipelined: the receive loop dispatches each envelope to a
// bounded worker pool (Workers), so slow authorizations — cold-cache RSA
// verification — overlap instead of serializing behind one another; the
// daemon_inflight gauge reports the pool's occupancy. Each worker writes
// its own reply (one write, no dial, no retry), so a client that reads
// slowly holds up only the worker answering it; replies may reorder
// relative to arrival, which the request/reply shape (every Reply echoes
// its Command.ID) tolerates.
// Duplicate commands — transport retries, client retransmits, injected
// dups — replay the recorded reply through the dedup cache instead of
// re-executing the handler; a duplicate that arrives while the original
// is still in flight waits for its result (recorded before the reply is
// written, so never behind a slow reader) rather than racing it.
// On context cancel or listener close the receive loop stops and
// in-flight commands drain, replies written, before Serve returns.
//
// Serve returns the context's error when canceled and nil on a clean
// listener close; any other transport failure is counted in
// daemon_serve_errors_total and returned.
func (p *pipeline) Serve(ctx context.Context, node commandNode) error {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := p.cfg.Metrics
	tasks := make(chan transport.Envelope)

	var workerWG sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for env := range tasks {
				if body := p.serveOne(ctx, &env); body != nil {
					if err := node.Reply(env, "reply", body); err != nil {
						log.Printf("%s: reply to %s: %v", p.cfg.Tag, env.From, err)
					}
				}
			}
		}()
	}

	var serveErr error
	for {
		env, err := node.RecvContext(ctx)
		if err != nil {
			switch {
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				serveErr = err // shutdown requested
			case errors.Is(err, transport.ErrClosed):
				serveErr = nil // clean close
			default:
				reg.Counter(metricServeErrors).Inc()
				serveErr = err // transport failure
			}
			break
		}
		if p.cfg.Intercept != nil && p.cfg.Intercept(env) {
			continue
		}
		tasks <- env
	}
	close(tasks)
	workerWG.Wait() // drain in-flight commands
	return serveErr
}

// serveOne decodes, dedups and handles a single command and returns the
// encoded reply, nil when there is none to send (a duplicate abandoned by
// shutdown). The envelope's frame buffer goes back to the transport as
// soon as the command is decoded.
func (p *pipeline) serveOne(ctx context.Context, env *transport.Envelope) []byte {
	cmd, err := decodeCommand(env.Payload)
	env.Release()
	if err != nil {
		return encodeReply(Reply{Detail: "bad command: " + err.Error()})
	}

	// Commands without an ID (legacy clients) bypass dedup: there is no
	// correlation key to replay under, so a retry re-executes — exactly
	// the pre-mux behavior those clients already tolerate.
	if cmd.ID == "" {
		return p.execute(ctx, cmd)
	}

	key := dedupKey{env.From, cmd.ID}
	entry, leader := p.dedup.begin(key)
	if !leader {
		// A duplicate: wait for the original's reply (it is being handled
		// by another worker right now, or already recorded) and replay it
		// on this copy's connection.
		select {
		case <-entry.done:
		case <-ctx.Done():
			return nil
		}
		p.replays.Inc()
		return entry.body
	}

	body := p.execute(ctx, cmd)
	p.evictions.Add(p.dedup.finish(key, body))
	p.entries.Set(int64(p.dedup.size()))
	return body
}

// execute runs the handler for one command and returns the encoded
// reply, which echoes the command's ID. The handler runs under the serve
// context itself: a decision runs in the worker's goroutine and leaves
// nothing behind to cancel.
func (p *pipeline) execute(ctx context.Context, cmd Command) []byte {
	reply := p.cfg.Handler(ctx, cmd)
	reply.ID = cmd.ID
	return encodeReply(reply)
}
