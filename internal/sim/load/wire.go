// Wire-inclusive drive: the same pooled workload pushed through the
// daemon's serve pipeline and mux client over real localhost TCP, so a
// measured series pays framing, the access request's single-pass JSON
// decode (authz.DecodeAccessRequest, as on a follower), kernel round
// trips and the retry-safe correlation machinery (unique IDs, dedup cache,
// reply demux) — everything the in-process series deliberately skips.
// The deltas between the two series bound the transport stack's cost.

package load

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// WireStats reports the transport-layer side of a wire-mode run,
// aggregated across the run's mux clients.
type WireStats struct {
	// Conns is how many mux client connections shared the load.
	Conns int `json:"conns"`
	// StaleReplies counts shed envelopes (daemon_mux_stale_replies_total).
	StaleReplies int64 `json:"stale_replies"`
	// Resends counts client retransmits (daemon_mux_resends_total).
	Resends int64 `json:"resends"`
	// DedupReplays counts duplicate commands the server answered from its
	// dedup cache (daemon_dedup_replays_total).
	DedupReplays int64 `json:"dedup_replays"`
	// ConnLost counts client connections that failed mid-run.
	ConnLost int64 `json:"conn_lost"`
}

// wireHarness is one wire-mode run's server pipeline and client fleet.
type wireHarness struct {
	node    *transport.TCPNode
	clients []*daemon.Client
	next    atomic.Uint64
	cancel  context.CancelFunc
	served  sync.WaitGroup
}

// wireHandler evaluates one shipped AccessRequest against the fixture's
// server. The outcome rides the Reply: OK mirrors the decision, Detail
// distinguishes denials ("denied: ...") from evaluation failures
// ("error: ...") so the client-side counters match the in-process ones.
func (f *LoadFixture) wireHandler(ctx context.Context, cmd daemon.Command) daemon.Reply {
	if cmd.Cmd != "authorize" {
		return daemon.Reply{Detail: "error: unknown command " + cmd.Cmd}
	}
	req, err := authz.DecodeAccessRequest([]byte(cmd.Data))
	if err != nil {
		return daemon.Reply{Detail: "error: bad request: " + err.Error()}
	}
	dec, err := f.Server.Authorize(ctx, req)
	switch {
	case err != nil && !dec.Allowed && dec.Reason != "":
		return daemon.Reply{Detail: "denied: " + dec.Reason}
	case err != nil:
		return daemon.Reply{Detail: "error: " + err.Error()}
	case dec.Allowed:
		return daemon.Reply{OK: true, Detail: "allowed"}
	default:
		return daemon.Reply{Detail: "denied: " + dec.Reason}
	}
}

// startWire pre-encodes the replay pool, starts the serve pipeline on an
// ephemeral localhost port, and dials cfg.Conns mux clients at it.
func (f *LoadFixture) startWire(cfg RunConfig, reg *obs.Registry) (*wireHarness, error) {
	for i := range f.pool {
		if f.pool[i].wireJSON != "" {
			continue // encoded by an earlier wire run
		}
		b, err := json.Marshal(f.pool[i].Req)
		if err != nil {
			return nil, fmt.Errorf("sim: encode pooled request %d: %w", i, err)
		}
		f.pool[i].wireJSON = string(b)
	}

	node, err := transport.ListenTCP("loadsrv", "127.0.0.1:0", transport.Options{})
	if err != nil {
		return nil, fmt.Errorf("sim: wire listener: %w", err)
	}
	node.Instrument(reg)
	srvCtx, cancel := context.WithCancel(context.Background())
	h := &wireHarness{node: node, cancel: cancel}
	pipe := daemon.NewPipeline(daemon.PipelineConfig{
		Handler: f.wireHandler,
		Metrics: reg,
		Tag:     "loadwire",
	})
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		_ = pipe.Serve(srvCtx, node)
	}()

	conns := cfg.Conns
	if conns <= 0 {
		conns = 4
	}
	if conns > cfg.Concurrency {
		conns = cfg.Concurrency
	}
	for i := 0; i < conns; i++ {
		cli, err := daemon.Dial(daemon.ClientConfig{
			ServerAddr: node.Addr(),
			ServerName: "loadsrv",
			Name:       fmt.Sprintf("loadcli%d", i),
			Resend:     time.Second,
			Metrics:    reg,
		})
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("sim: wire client %d: %w", i, err)
		}
		h.clients = append(h.clients, cli)
	}
	return h, nil
}

// call pushes one pooled request through the next client (round-robin
// over the shared connections) and returns the daemon's reply.
func (h *wireHarness) call(ctx context.Context, pr *PooledRequest) (daemon.Reply, error) {
	cli := h.clients[h.next.Add(1)%uint64(len(h.clients))]
	return cli.Call(ctx, daemon.Command{Cmd: "authorize", Data: pr.wireJSON})
}

// Close tears the harness down: clients first (their receivers stop),
// then the serve pipeline and listener.
func (h *wireHarness) Close() {
	for _, cli := range h.clients {
		_ = cli.Close()
	}
	h.cancel()
	_ = h.node.Close()
	h.served.Wait()
}

// stats aggregates the run's wire counters out of the shared registry.
func (h *wireHarness) stats(reg *obs.Registry) *WireStats {
	return &WireStats{
		Conns:        len(h.clients),
		StaleReplies: reg.Counter(daemon.MetricMuxStale).Value(),
		Resends:      reg.Counter(daemon.MetricMuxResends).Value(),
		DedupReplays: reg.Counter(daemon.MetricDedupReplays).Value(),
		ConnLost:     reg.Counter(daemon.MetricMuxConnLost).Value(),
	}
}

// wireOutcome maps one wire reply onto the shared outcome taxonomy:
// "allowed", "denied" or "error".
func wireOutcome(rep daemon.Reply, err error) string {
	switch {
	case err != nil:
		return "error"
	case rep.OK:
		return "allowed"
	case strings.HasPrefix(rep.Detail, "denied:"):
		return "denied"
	default:
		return "error"
	}
}
