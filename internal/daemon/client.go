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
	// metricMuxInflight gauges calls awaiting their reply.
	metricMuxInflight = "daemon_mux_inflight"
	// metricMuxStale counts shed envelopes: duplicated replies to calls
	// already answered, and replies that arrived after their caller gave
	// up.
	metricMuxStale = "daemon_mux_stale_replies_total"
	// MetricMuxResends counts retransmitted commands (same ID; the
	// daemon's dedup cache answers duplicates from its recorded reply).
	MetricMuxResends = "daemon_mux_resends_total"
	// metricMuxTimeouts counts calls abandoned by their context deadline.
	metricMuxTimeouts = "daemon_mux_timeouts_total"
	// metricMuxConnLost counts receiver failures that failed every
	// pending call at once.
	metricMuxConnLost = "daemon_mux_conn_lost_total"
)

// errConnLost reports that the client's shared connection failed with
// calls in flight; every pending call (and all future ones) fails with
// an error wrapping it.
var errConnLost = errors.New("daemon: client connection lost")

// clientEndpoint is the transport surface the client multiplexes over:
// a *transport.TCPNode, or a *transport.Faulty wrapping one.
type clientEndpoint interface {
	SendMessage(to, kind string, m transport.Message) error
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
	// Resend retransmits a call's command (same ID) while its reply is
	// outstanding: first once Resend has passed since the call was sent,
	// then every Resend, each within half a Resend of being due, until
	// the reply arrives or the call's context expires; 0 disables.
	// Resends are what let a call survive a lost request or reply frame;
	// the daemon's dedup cache keeps them exactly-once.
	Resend time.Duration
	// Metrics receives the daemon_mux_* series; nil drops them.
	Metrics *obs.Registry
}

// Client is the multiplexing command client. It is safe for concurrent
// use: any number of goroutines may Call at once, all sharing the one
// underlying connection.
type Client struct {
	ep      clientEndpoint
	server  string
	met     clientMetrics
	resend  time.Duration
	ownsEP  bool
	nonce   string
	seq     atomic.Uint64
	ctx     context.Context // canceled on Close or receiver failure
	cancel  context.CancelFunc
	running sync.WaitGroup // the receiver and the resend sweep

	mu      sync.Mutex
	pending map[string]*call
	err     error // terminal failure; set before cancel()
}

// clientMetrics are the daemon_mux_* series, resolved once per client.
type clientMetrics struct {
	inflight                                       *obs.Gauge
	ok, failed, stale, resends, timeouts, connLost *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		inflight: reg.Gauge(metricMuxInflight),
		ok:       reg.Counter(MetricMuxCalls, "outcome", "ok"),
		failed:   reg.Counter(MetricMuxCalls, "outcome", "error"),
		stale:    reg.Counter(metricMuxStale),
		resends:  reg.Counter(MetricMuxResends),
		timeouts: reg.Counter(metricMuxTimeouts),
		connLost: reg.Counter(metricMuxConnLost),
	}
}

// call is one outstanding Call. It is the transport.Message its command
// is sent as: the command's wire form is appended straight into the
// outbound frame, on the first send and on every resend.
type call struct {
	cmd  Command
	done chan callResult // buffered (1); written once, by whoever claims the call
	// sent is when cmd last went out; guarded by Client.mu.
	sent time.Time
	// sending is held by the resend sweep while it sends cmd, so Call can
	// wait a resend out before it returns and the caller's command
	// (its Signers slice) is read no more.
	sending sync.Mutex
}

// callResult is what a claimed call is woken with: its reply, or the
// resend failure that ended it.
type callResult struct {
	reply Reply
	err   error
}

// AppendTo implements transport.Message.
func (cl *call) AppendTo(b []byte) []byte { return appendCommand(b, cl.cmd) }

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
	c := newClient(node, cfg.ServerName, cfg.Resend, cfg.Metrics)
	c.ownsEP = true
	return c, nil
}

// newClient builds a mux client over an existing endpoint (tests wrap a
// dial-only TCP node in a fault injector). The client does not own the
// endpoint: Close stops the receiver but leaves the endpoint open.
func newClient(ep clientEndpoint, serverName string, resend time.Duration, reg *obs.Registry) *Client {
	var nb [6]byte
	cryptorand.Read(nb[:]) //nolint:errcheck // rand.Read never fails
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		ep:      ep,
		server:  serverName,
		met:     newClientMetrics(reg),
		resend:  resend,
		nonce:   hex.EncodeToString(nb[:]),
		ctx:     ctx,
		cancel:  cancel,
		pending: make(map[string]*call),
	}
	c.running.Add(1)
	go c.recvLoop()
	if resend > 0 {
		c.running.Add(1)
		go c.resendLoop()
	}
	return c
}

// nextID mints a unique correlation ID: per-instance nonce + sequence.
func (c *Client) nextID() string {
	return c.nonce + "-" + strconv.FormatUint(c.seq.Add(1), 10)
}

// claim removes the pending call with the given ID and returns it; the
// claimer is the one party that writes its result. Nil when no call
// with that ID is pending (answered already, or given up).
func (c *Client) claim(id string) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.pending[id]
	delete(c.pending, id)
	return cl
}

// drop removes cl from the pending calls if it is still there, and
// reports whether it was: then nothing else can claim it.
func (c *Client) drop(cl *call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[cl.cmd.ID] != cl {
		return false
	}
	delete(c.pending, cl.cmd.ID)
	return true
}

// recvLoop demultiplexes inbound envelopes into per-call channels by
// Reply.ID until the client closes. A receive failure is terminal: every
// pending call fails with errConnLost, as do all future calls.
func (c *Client) recvLoop() {
	defer c.running.Done()
	for {
		env, err := c.ep.RecvContext(c.ctx)
		if err != nil {
			if c.ctx.Err() == nil {
				// Not a voluntary Close: the shared connection is gone.
				c.met.connLost.Inc()
				c.fail(fmt.Errorf("%w: %v", errConnLost, err))
			}
			return
		}
		var reply Reply
		if env.Kind == "reply" {
			reply, _ = decodeReply(env.Payload) // undecodable: zero Reply, shed below
		}
		env.Release() // the reply's strings are its own
		var cl *call
		if reply.ID != "" {
			// Claim the call before delivering so a duplicate arriving
			// next is shed as stale, never delivered twice.
			cl = c.claim(reply.ID)
		}
		if cl == nil {
			c.met.stale.Inc()
			continue
		}
		cl.done <- callResult{reply: reply} // buffered (1); the claim makes this the only write
	}
}

// resendLoop retransmits each pending call whose command has gone
// unanswered for a whole Resend, sweeping every half Resend (at most once
// a millisecond) until the client closes: one sweep for all calls
// instead of a timer per call.
func (c *Client) resendLoop() {
	defer c.running.Done()
	t := time.NewTicker(max(c.resend/2, time.Millisecond))
	defer t.Stop()
	var due []*call
	for {
		select {
		case <-c.ctx.Done():
			return
		case now := <-t.C:
			due = due[:0]
			c.mu.Lock()
			for _, cl := range c.pending {
				if now.Sub(cl.sent) >= c.resend {
					cl.sent = now
					due = append(due, cl)
				}
			}
			c.mu.Unlock()
			for _, cl := range due {
				c.resendOne(cl)
			}
			clear(due) // keep no finished call alive until the next sweep
		}
	}
}

// resendOne retransmits cl's command under its ID: the daemon's dedup
// cache answers a duplicate from its recorded reply, so a lost request or
// reply frame heals without double execution. A send that fails (the
// node has already retried it under its Options) ends the call with that
// error, unless its reply got there first.
func (c *Client) resendOne(cl *call) {
	cl.sending.Lock()
	defer cl.sending.Unlock()
	c.met.resends.Inc()
	if err := c.ep.SendMessage(c.server, "cmd", cl); err != nil && c.drop(cl) {
		cl.done <- callResult{err: fmt.Errorf("daemon: resend %s: %w", cl.cmd.Cmd, err)}
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
	cl := &call{cmd: cmd, done: make(chan callResult, 1), sent: time.Now()}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Reply{}, err
	}
	c.pending[cmd.ID] = cl
	c.mu.Unlock()
	c.met.inflight.Inc()
	defer c.met.inflight.Dec()
	defer c.forget(cl)

	if err := c.ep.SendMessage(c.server, "cmd", cl); err != nil {
		c.met.failed.Inc()
		return Reply{}, fmt.Errorf("daemon: send %s: %w", cmd.Cmd, err)
	}
	select {
	case res := <-cl.done:
		if res.err != nil {
			c.met.failed.Inc()
			return Reply{}, res.err
		}
		c.met.ok.Inc()
		return res.reply, nil
	case <-ctx.Done():
		c.met.timeouts.Inc()
		c.met.failed.Inc()
		return Reply{}, fmt.Errorf("daemon: call %s [%s]: %w", cmd.Cmd, cmd.ID, ctx.Err())
	case <-c.ctx.Done():
		c.met.failed.Inc()
		if err := c.Err(); err != nil {
			return Reply{}, err
		}
		return Reply{}, fmt.Errorf("daemon: call %s [%s]: %w", cmd.Cmd, cmd.ID, transport.ErrClosed)
	}
}

// forget drops cl from the pending calls and waits out a resend of it
// that is in progress, so nothing reads cl's command once Call returns.
func (c *Client) forget(cl *call) {
	c.drop(cl)
	cl.sending.Lock()
	cl.sending.Unlock() //nolint:staticcheck // an empty critical section: the wait is the point
}

// Close stops the receiver and the resend sweep and fails any pending
// calls. The underlying node is closed only when the client created it
// (Dial).
func (c *Client) Close() error {
	c.cancel()
	c.running.Wait()
	if c.ownsEP {
		return c.ep.Close()
	}
	return nil
}
