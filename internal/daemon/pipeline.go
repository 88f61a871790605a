// The wire serve pipeline shared by the writer daemon and the follower:
// receive loop → bounded worker pool →
// ID-keyed dedup → single reply sender. Extracting it keeps the
// request/reply semantics — every reply echoes its Command.ID, duplicate
// commands replay the recorded answer instead of re-executing — identical
// across every role that speaks the command protocol.

package daemon

import (
	"context"
	"errors"
	"log"
	"runtime"
	"strings"
	"sync"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// CommandNode is the transport surface the pipeline drives: receive
// commands, learn reply addresses, send replies. *transport.TCPNode
// implements it; tests supply fakes.
type CommandNode interface {
	RecvContext(ctx context.Context) (transport.Envelope, error)
	AddPeer(name, addr string)
	Send(to, kind string, payload []byte) error
}

var _ CommandNode = (*transport.TCPNode)(nil)

// Dedup metric names.
const (
	// MetricDedupReplays counts duplicate commands answered from the
	// dedup cache instead of re-executed.
	MetricDedupReplays = "daemon_dedup_replays_total"
	// MetricDedupEvictions counts completed replies aged out of the
	// bounded dedup cache.
	MetricDedupEvictions = "daemon_dedup_evictions_total"
	// MetricDedupEntries gauges the dedup cache occupancy (in-flight
	// commands included).
	MetricDedupEntries = "daemon_dedup_entries"
)

// pipelineConfig assembles one serve pipeline.
type pipelineConfig struct {
	// Handler executes one decoded command (Daemon.Handle or
	// Follower.Handle). It must be safe for concurrent use.
	Handler func(ctx context.Context, cmd Command) Reply
	// Workers bounds concurrent command handling (default GOMAXPROCS).
	Workers int
	// DedupCap bounds the remembered-reply cache (default
	// DefaultDedupCap).
	DedupCap int
	// Metrics receives the dedup counters; nil drops them.
	Metrics *obs.Registry
	// Intercept, when set, sees every inbound envelope before the command
	// path; returning true consumes it (replication frames ride the same
	// node but bypass the worker pool).
	Intercept func(kind string, payload []byte) bool
	// Tag prefixes the pipeline's log lines ("daemon", "follower", ...).
	Tag string
}

// pipeline is one running serve loop's machinery.
type pipeline struct {
	cfg   pipelineConfig
	dedup *dedupCache
}

// newPipeline builds a pipeline; Serve runs it.
func newPipeline(cfg pipelineConfig) *pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Tag == "" {
		cfg.Tag = "daemon"
	}
	return &pipeline{cfg: cfg, dedup: newDedupCache(cfg.DedupCap)}
}

// outbound is one reply routed back to its sender.
type outbound struct {
	to   string
	addr string
	body []byte
}

// Serve answers commands on the node until it closes or the context is
// canceled. The reply address rides in the message kind as "cmd@addr"
// (clients listening on an ephemeral port advertise it there; clients on
// a name-routed transport omit it).
//
// Commands are pipelined: the receive loop dispatches each envelope to a
// bounded worker pool (Workers), so slow authorizations — cold-cache RSA
// verification — overlap instead of serializing behind one another; the
// daemon_inflight gauge reports the pool's occupancy.
// Replies funnel through a single sender goroutine — the transport's
// per-peer write lock makes concurrent sends safe, but one sender keeps
// reply order stable per client and keeps retry backoffs for one dead
// client from tying up worker goroutines — and are routed per sender;
// replies to different clients may reorder relative to arrival, which
// the request/reply shape (every Reply echoes its Command.ID) tolerates.
// Duplicate commands — transport retries, client retransmits, injected
// dups — replay the recorded reply through the dedup cache instead of
// re-executing the handler; a duplicate that arrives while the original
// is still in flight waits for its result rather than racing it.
// On context cancel or listener close the receive loop stops, in-flight
// commands drain, and queued replies are flushed before Serve returns.
//
// Serve returns the context's error when canceled and nil on a clean
// listener close; any other transport failure is counted in
// daemon_serve_errors_total and returned.
func (p *pipeline) Serve(ctx context.Context, node CommandNode) error {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := p.cfg.Metrics
	tasks := make(chan transport.Envelope)
	replies := make(chan outbound, p.cfg.Workers)

	var senderWG sync.WaitGroup
	senderWG.Add(1)
	go func() {
		defer senderWG.Done()
		for out := range replies {
			if out.addr != "" {
				node.AddPeer(out.to, out.addr)
			}
			if err := node.Send(out.to, "reply", out.body); err != nil {
				log.Printf("%s: reply to %s: %v", p.cfg.Tag, out.to, err)
			}
		}
	}()

	var workerWG sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for env := range tasks {
				p.serveOne(ctx, env, replies)
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
				reg.Counter(MetricServeErrors).Inc()
				serveErr = err // transport failure
			}
			break
		}
		if p.cfg.Intercept != nil && p.cfg.Intercept(env.Kind, env.Payload) {
			continue
		}
		tasks <- env
	}
	close(tasks)
	workerWG.Wait() // drain in-flight commands
	close(replies)
	senderWG.Wait() // flush queued replies
	return serveErr
}

// serveOne decodes, dedups, handles and answers a single command under
// its own request context.
func (p *pipeline) serveOne(ctx context.Context, env transport.Envelope, replies chan<- outbound) {
	reg := p.cfg.Metrics
	cmd, err := DecodeCommand(env.Payload)
	if err != nil {
		body := EncodeReply(Reply{Detail: "bad command: " + err.Error()})
		replies <- outbound{to: env.From, addr: returnAddr(env.Kind), body: body}
		return
	}

	// Commands without an ID (legacy clients) bypass dedup: there is no
	// correlation key to replay under, so a retry re-executes — exactly
	// the pre-mux behavior those clients already tolerate.
	if cmd.ID == "" {
		p.execute(ctx, env, cmd, replies)
		return
	}

	key := dedupKey(env.From, cmd.ID)
	entry, leader := p.dedup.begin(key)
	if !leader {
		// A duplicate: wait for the original's reply (it is being handled
		// by another worker right now, or already recorded) and replay it
		// to wherever this copy came from.
		select {
		case <-entry.done:
		case <-ctx.Done():
			return
		}
		reg.Counter(MetricDedupReplays).Inc()
		replies <- outbound{to: env.From, addr: returnAddr(env.Kind), body: entry.body}
		return
	}

	body := p.execute(ctx, env, cmd, replies)
	reg.Counter(MetricDedupEvictions).Add(p.dedup.finish(key, body))
	reg.Gauge(MetricDedupEntries).Set(int64(p.dedup.size()))
}

// execute runs the handler for one command, sends the reply, and returns
// the encoded reply body.
func (p *pipeline) execute(ctx context.Context, env transport.Envelope, cmd Command, replies chan<- outbound) []byte {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	reply := p.cfg.Handler(reqCtx, cmd)
	reply.ID = cmd.ID // every reply echoes its command's ID
	body := EncodeReply(reply)
	replies <- outbound{to: env.From, addr: returnAddr(env.Kind), body: body}
	return body
}

// returnAddr extracts the reply address from "cmd@addr".
func returnAddr(kind string) string {
	if i := strings.IndexByte(kind, '@'); i >= 0 {
		return kind[i+1:]
	}
	return ""
}
