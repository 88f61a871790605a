// The multiplexing command client: N concurrent in-flight requests over
// one shared connection, demultiplexed by Command.ID.
//
// The daemon protocol is one binary Command per envelope (codec.go gives
// the layout field by field) with the binary Reply written back on the
// connection the command arrived on, so nothing in the transport orders
// replies or pairs them with requests — a client that treats "the next
// envelope" as "my reply" cross-wires the moment a retry duplicates a
// frame or a second request goes out before the first answer returns.
// Client fixes the correlation end-to-end: every call carries a unique
// ID, replies are matched to their waiting caller by that ID, stale
// envelopes (duplicates of already-answered calls, replies that outlived
// their deadline) are shed and counted, and unanswered calls are
// retransmitted under the same ID — safe because the serve pipeline's
// dedup cache replays the recorded reply instead of re-executing the
// command.

package daemon

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

// Mux client metric names.
const (
	// MetricMuxCalls counts issued calls, labeled outcome=ok|error.
	MetricMuxCalls = "daemon_mux_calls_total"
	// MetricMuxInflight gauges calls awaiting their reply.
	MetricMuxInflight = "daemon_mux_inflight"
	// MetricMuxStale counts shed envelopes: duplicated replies to calls
	// already answered, and replies that arrived after their caller gave
	// up.
	MetricMuxStale = "daemon_mux_stale_replies_total"
	// MetricMuxResends counts retransmitted commands (same ID; the
	// daemon's dedup cache answers duplicates from its recorded reply).
	MetricMuxResends = "daemon_mux_resends_total"
	// MetricMuxTimeouts counts calls abandoned by their context deadline.
	MetricMuxTimeouts = "daemon_mux_timeouts_total"
	// MetricMuxConnLost counts receiver failures that failed every
	// pending call at once.
	MetricMuxConnLost = "daemon_mux_conn_lost_total"
)

// ErrConnLost reports that the client's shared connection failed with
// calls in flight; every pending call (and all future ones) fails with
// an error wrapping it.
var ErrConnLost = errors.New("daemon: client connection lost")

// ClientEndpoint is the transport surface the client multiplexes over.
// *transport.TCPNode, *transport.Faulty and the in-memory endpoints all
// satisfy it.
type ClientEndpoint interface {
	Send(to, kind string, payload []byte) error
	RecvContext(ctx context.Context) (transport.Envelope, error)
	Close() error
}

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// ServerAddr is the daemon's TCP address.
	ServerAddr string
	// ServerName is the daemon's transport name (default "coalitiond").
	ServerName string
	// Name is this client's transport name (default "client"). Calls stay
	// correlatable even when several clients share a name: IDs carry a
	// per-instance random nonce.
	Name string
	// Transport configures the underlying TCP node's deadlines and retry
	// policy.
	Transport transport.Options
	// Resend retransmits a call's command (same ID) every interval until
	// its reply arrives or its context expires; 0 disables. Resends are
	// what let a call survive a lost request or reply frame; the daemon's
	// dedup cache keeps them exactly-once.
	Resend time.Duration
	// Metrics receives the daemon_mux_* series; nil drops them.
	Metrics *obs.Registry
}

// Client is the multiplexing command client. It is safe for concurrent
// use: any number of goroutines may Call at once, all sharing the one
// underlying connection.
type Client struct {
	ep       ClientEndpoint
	server   string
	reg      *obs.Registry
	resend   time.Duration
	ownsEP   bool
	nonce    string
	seq      atomic.Uint64
	ctx      context.Context // canceled on Close or receiver failure
	cancel   context.CancelFunc
	recvered sync.WaitGroup

	mu      sync.Mutex
	pending map[string]chan Reply
	err     error // terminal failure; set before cancel()
}

// Dial opens a dial-only TCP node (one connection to the daemon, no
// listener: replies come back on that connection), registers the daemon
// as a peer, and returns a mux client over it. Close releases the node.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.ServerName == "" {
		cfg.ServerName = "coalitiond"
	}
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	node := transport.DialTCP(cfg.Name, cfg.Transport)
	node.Instrument(cfg.Metrics)
	node.AddPeer(cfg.ServerName, cfg.ServerAddr)
	c := NewClient(node, cfg.ServerName, cfg.Resend, cfg.Metrics)
	c.ownsEP = true
	return c, nil
}

// NewClient builds a mux client over an existing endpoint (tests wrap
// fault injectors or in-memory networks). The client does not own the
// endpoint: Close stops the receiver but leaves the endpoint open.
func NewClient(ep ClientEndpoint, serverName string, resend time.Duration, reg *obs.Registry) *Client {
	var nb [6]byte
	cryptorand.Read(nb[:]) //nolint:errcheck // rand.Read never fails
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		ep:      ep,
		server:  serverName,
		reg:     reg,
		resend:  resend,
		nonce:   hex.EncodeToString(nb[:]),
		ctx:     ctx,
		cancel:  cancel,
		pending: make(map[string]chan Reply),
	}
	c.recvered.Add(1)
	go c.recvLoop()
	return c
}

// nextID mints a unique correlation ID: per-instance nonce + sequence.
func (c *Client) nextID() string {
	return c.nonce + "-" + strconv.FormatUint(c.seq.Add(1), 10)
}

// recvLoop demultiplexes inbound envelopes into per-call channels by
// Reply.ID until the client closes. A receive failure is terminal: every
// pending call fails with ErrConnLost, as do all future calls.
func (c *Client) recvLoop() {
	defer c.recvered.Done()
	for {
		env, err := c.ep.RecvContext(c.ctx)
		if err != nil {
			if c.ctx.Err() == nil {
				// Not a voluntary Close: the shared connection is gone.
				c.reg.Counter(MetricMuxConnLost).Inc()
				c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			}
			return
		}
		var reply Reply
		if env.Kind == "reply" {
			reply, _ = DecodeReply(env.Payload) // undecodable: zero Reply, shed below
		}
		if reply.ID == "" {
			c.reg.Counter(MetricMuxStale).Inc()
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[reply.ID]
		if ok {
			// Claim the call before delivering so a duplicate arriving
			// next is shed as stale, never delivered twice.
			delete(c.pending, reply.ID)
		}
		c.mu.Unlock()
		if !ok {
			c.reg.Counter(MetricMuxStale).Inc()
			continue
		}
		ch <- reply // buffered (1); the claiming recv never blocks
	}
}

// fail marks the client dead and wakes every pending caller.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.cancel()
}

// Err returns the client's terminal error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Call sends one command and blocks until its reply arrives, the context
// expires, or the client fails. The command's ID is assigned here when
// unset; concurrent calls multiplex freely over the shared connection.
// The returned error covers delivery — a Reply with OK=false and the
// denial detail is a successful call.
func (c *Client) Call(ctx context.Context, cmd Command) (Reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cmd.ID == "" {
		cmd.ID = c.nextID()
	}
	body := EncodeCommand(cmd)

	ch := make(chan Reply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Reply{}, err
	}
	c.pending[cmd.ID] = ch
	c.mu.Unlock()
	inflight := c.reg.Gauge(MetricMuxInflight)
	inflight.Inc()
	defer inflight.Dec()
	defer func() {
		c.mu.Lock()
		delete(c.pending, cmd.ID)
		c.mu.Unlock()
	}()

	if err := c.ep.Send(c.server, "cmd", body); err != nil {
		c.reg.Counter(MetricMuxCalls, "outcome", "error").Inc()
		return Reply{}, fmt.Errorf("daemon: send %s: %w", cmd.Cmd, err)
	}

	var resendC <-chan time.Time
	if c.resend > 0 {
		t := time.NewTicker(c.resend)
		defer t.Stop()
		resendC = t.C
	}
	for {
		select {
		case reply := <-ch:
			c.reg.Counter(MetricMuxCalls, "outcome", "ok").Inc()
			return reply, nil
		case <-ctx.Done():
			c.reg.Counter(MetricMuxTimeouts).Inc()
			c.reg.Counter(MetricMuxCalls, "outcome", "error").Inc()
			return Reply{}, fmt.Errorf("daemon: call %s [%s]: %w", cmd.Cmd, cmd.ID, ctx.Err())
		case <-c.ctx.Done():
			c.reg.Counter(MetricMuxCalls, "outcome", "error").Inc()
			if err := c.Err(); err != nil {
				return Reply{}, err
			}
			return Reply{}, fmt.Errorf("daemon: call %s [%s]: %w", cmd.Cmd, cmd.ID, transport.ErrClosed)
		case <-resendC:
			// Same ID: the daemon's dedup cache answers a duplicate from
			// its recorded reply, so a lost request or reply frame heals
			// without double execution.
			c.reg.Counter(MetricMuxResends).Inc()
			if err := c.ep.Send(c.server, "cmd", body); err != nil && !retryableSend(err) {
				c.reg.Counter(MetricMuxCalls, "outcome", "error").Inc()
				return Reply{}, fmt.Errorf("daemon: resend %s: %w", cmd.Cmd, err)
			}
		}
	}
}

// retryableSend reports whether a failed retransmit should keep the call
// alive (transient congestion) rather than fail it (closed node).
func retryableSend(err error) bool {
	return errors.Is(err, transport.ErrInboxFull)
}

// Close stops the receiver and fails any pending calls. The underlying
// node is closed only when the client created it (Dial).
func (c *Client) Close() error {
	c.cancel()
	c.recvered.Wait()
	if c.ownsEP {
		return c.ep.Close()
	}
	return nil
}
