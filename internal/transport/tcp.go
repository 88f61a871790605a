package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/wirefmt"
)

// TCPNode is a TCP-backed endpoint: it listens on its own address (or,
// built by DialTCP, nowhere) and dials peers on demand, caching one
// connection per destination. Frames are length-prefixed, hand-encoded
// Envelopes (the package comment has the layout). Every connection,
// dialed or accepted, carries frames both ways: one read loop feeds the
// inbox through a buffered reader (a header and its body — or several
// pipelined frames — cost one read), and each frame is one write under
// the connection's lock. Send reaches a peer by name on the connection
// this node dialed; Reply answers on the connection an envelope arrived
// on. A peer's own lock serializes its dials, so a slow dial to a dead
// peer never blocks other sends. Lock order: node, then peer, then
// connection; the node lock is never held with the others. A dialed
// connection the peer closes is dropped by its read loop, so the next
// Send dials afresh. A failed Send write drops the connection and is
// retried under Options with a fresh dial; a failed Reply is not.
type TCPNode struct {
	name     string
	listener net.Listener // nil on a dial-only node
	opts     Options

	// met holds the node's metrics registry and the per-frame counter
	// handles resolved from it (Instrument). Never nil; atomic because
	// the accept/read loops consult it concurrently with Instrument.
	met atomic.Pointer[nodeMetrics]

	// rng feeds the retry jitter; guarded by rngMu (math/rand.Rand is not
	// safe for concurrent use).
	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	peers    map[string]*tcpPeer
	accepted map[*tcpConn]bool
	inbox    chan Envelope

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// tcpPeer is one destination's dialed connection. Its lock serializes
// dialing and the swap of a failed connection. dropped records that the
// read loop let go of a connection the peer closed, so the next dial is
// counted as a redial.
type tcpPeer struct {
	mu      sync.Mutex
	addr    string
	conn    *tcpConn
	dropped bool
}

// tcpConn is one connection, dialed or accepted. Its lock makes every
// frame one uninterrupted write.
type tcpConn struct {
	mu sync.Mutex
	net.Conn
}

// Transport metric names. Frame/byte counters are labeled dir="in"/"out";
// per-peer connection gauges and error counters are labeled by peer name.
const (
	// metricFrames counts envelopes moved, labeled dir="in"/"out".
	metricFrames = "transport_frames_total"
	// MetricBytes counts frame payload bytes moved (including the 4-byte
	// length prefix), labeled dir="in"/"out".
	MetricBytes = "transport_bytes_total"
	// MetricDialErrors counts failed dials, labeled by peer.
	MetricDialErrors = "transport_dial_errors_total"
	// metricSendErrors counts failed frame writes, labeled by peer.
	metricSendErrors = "transport_send_errors_total"
	// metricAcceptErrors counts listener accept failures.
	metricAcceptErrors = "transport_accept_errors_total"
	// MetricPeerConns gauges open dialed connections, labeled by peer.
	MetricPeerConns = "transport_peer_conns"
	// metricAcceptedConns gauges open accepted (inbound) connections.
	metricAcceptedConns = "transport_accepted_conns"
	// MetricSendRetries counts retried send attempts (attempt 2 and
	// later), labeled by peer.
	MetricSendRetries = "transport_send_retries_total"
	// metricRedials counts connections re-dialed after a failed write or
	// dial, or after the peer closed the previous one, labeled by peer.
	metricRedials = "transport_redials_total"
	// metricWriteTimeouts counts frame writes that exceeded the configured
	// write deadline, labeled by peer (also counted in send errors).
	metricWriteTimeouts = "transport_write_timeouts_total"
	// metricFrameErrors counts inbound connections dropped because a
	// frame broke the wire format, labeled reason="oversize" (length
	// prefix beyond the frame limit — what arbitrary bytes usually look
	// like), "malformed" (a field runs past the frame, or bytes follow
	// the last field) or "version" (leading byte of another format, e.g.
	// a peer from before the binary codec). A peer that closes or dies,
	// even mid-frame, is not a frame error.
	metricFrameErrors = "transport_frame_errors_total"
)

// nodeMetrics is a registry plus the counters every frame touches,
// looked up once instead of per frame (a labeled lookup hashes its
// labels). A nil registry yields detached counters nobody reads.
type nodeMetrics struct {
	reg                                    *obs.Registry
	framesIn, framesOut, bytesIn, bytesOut *obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		reg:       reg,
		framesIn:  reg.Counter(metricFrames, "dir", "in"),
		framesOut: reg.Counter(metricFrames, "dir", "out"),
		bytesIn:   reg.Counter(MetricBytes, "dir", "in"),
		bytesOut:  reg.Counter(MetricBytes, "dir", "out"),
	}
}

// Instrument injects a metrics registry for frame, byte, error and
// connection accounting. Call it right after ListenTCP, before the node
// carries traffic; nil (the default) disables the accounting.
func (n *TCPNode) Instrument(reg *obs.Registry) {
	if reg != nil {
		n.met.Store(newNodeMetrics(reg))
	}
}

// metrics returns the injected registry for the labeled, off-hot-path
// series (nil disables accounting; the obs API is nil-safe).
func (n *TCPNode) metrics() *obs.Registry { return n.met.Load().reg }

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts a node listening on addr ("127.0.0.1:0" picks a free
// port; use Addr to learn it). An optional Options value configures
// deadlines and the retry policy; omitted, the defaults apply.
func ListenTCP(name, addr string, opts ...Options) (*TCPNode, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := newTCPNode(name, l, opts)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// DialTCP returns a node that listens nowhere: it reads its peers'
// answers on the connections it dials. Options are as for ListenTCP.
func DialTCP(name string, opts ...Options) *TCPNode { return newTCPNode(name, nil, opts) }

func newTCPNode(name string, l net.Listener, opts []Options) *TCPNode {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	n := &TCPNode{
		name:     name,
		listener: l,
		opts:     o,
		rng:      o.newRNG(),
		peers:    make(map[string]*tcpPeer),
		accepted: make(map[*tcpConn]bool),
		inbox:    make(chan Envelope, 1024),
		closed:   make(chan struct{}),
	}
	n.met.Store(newNodeMetrics(nil))
	return n
}

// Addr returns the node's listening address ("" on a dial-only node).
func (n *TCPNode) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Name returns the node's name.
func (n *TCPNode) Name() string { return n.name }

// AddPeer registers a peer's address for dialing. The first address
// registered for a name stays: a node that needs a peer elsewhere is a
// new node.
func (n *TCPNode) AddPeer(name, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[name]; !ok {
		n.peers[name] = &tcpPeer{addr: addr}
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		nc, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.closed:
			default:
				n.metrics().Counter(metricAcceptErrors).Inc()
			}
			return // listener closed
		}
		c := &tcpConn{Conn: nc}
		n.mu.Lock()
		n.accepted[c] = true
		n.mu.Unlock()
		n.metrics().Gauge(metricAcceptedConns).Inc()
		n.wg.Add(1)
		go n.readLoop(c, nil, "")
	}
}

// readLoop feeds c's frames into the inbox until c fails, then closes it.
// p is nil for an accepted connection; for one this node dialed to peer,
// the loop's end also clears p's connection if it is still c, so the next
// Send dials at once instead of failing a write on a dead socket.
func (n *TCPNode) readLoop(c *tcpConn, p *tcpPeer, peer string) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		if p == nil {
			n.mu.Lock()
			delete(n.accepted, c)
			n.mu.Unlock()
			n.metrics().Gauge(metricAcceptedConns).Dec()
			return
		}
		p.mu.Lock()
		if p.conn == c {
			p.conn, p.dropped = nil, true
			n.metrics().Gauge(MetricPeerConns, "peer", peer).Dec()
		}
		p.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, readBufSize)
	var names frameNames
	for {
		env, size, err := readFrame(br, &names)
		if err != nil {
			// A peer that closed or died (EOF, reset, this node closing)
			// just ends the loop; a frame that breaks the format is
			// counted and logged, and costs the peer this connection only.
			if reason := frameErrorReason(err); reason != "" {
				n.metrics().Counter(metricFrameErrors, "reason", reason).Inc()
				log.Printf("transport: %s: dropping connection from %s: %v", n.name, c.RemoteAddr(), err)
			}
			return
		}
		env.conn = c
		m := n.met.Load()
		m.framesIn.Inc()
		m.bytesIn.Add(int64(size))
		select {
		case n.inbox <- env:
		case <-n.closed:
			env.Release()
			return
		}
	}
}

// Send delivers one frame to the peer, dialing (or reusing) its
// connection. A failed dial or write drops the connection and is retried
// under the node's Options — bounded attempts, exponential backoff with
// jitter, and a fresh dial per attempt — so one dead socket or flaky
// accept does not surface as an error when the peer recovers in time.
// Sends to unknown peers and sends on a closed node fail immediately.
func (n *TCPNode) Send(to, kind string, payload []byte) error {
	return n.send(Envelope{From: n.name, To: to, Kind: kind, Payload: payload}, nil)
}

// SendMessage is Send for a message that encodes itself: m appends its
// bytes straight into the pooled frame, once, and every retry resends
// that frame. The bytes on the wire are those of Send(to, kind,
// m.AppendTo(nil)).
func (n *TCPNode) SendMessage(to, kind string, m Message) error {
	return n.send(Envelope{From: n.name, To: to, Kind: kind}, m)
}

// send frames env — with m's bytes as the payload when m is set — and
// delivers it under Send's retry policy.
func (n *TCPNode) send(env Envelope, m Message) error {
	// The frame is encoded once, into a pooled buffer that goes back only
	// when send returns: every retry resends the same bytes, and the
	// caller's payload is not touched again.
	buf := framePool.Get().(*[]byte)
	defer releaseFrame(buf)
	frame, err := appendFrame((*buf)[:0], env, m)
	if err != nil {
		return fmt.Errorf("transport: encode frame to %s: %w", env.To, err)
	}
	*buf = frame
	var lastErr error
	for attempt := 1; attempt <= n.opts.Attempts; attempt++ {
		if attempt > 1 {
			n.metrics().Counter(MetricSendRetries, "peer", env.To).Inc()
			if err := n.sleep(n.backoff(attempt - 1)); err != nil {
				return err
			}
		}
		err := n.sendOnce(env.To, frame, attempt > 1)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return lastErr
}

// Reply answers env on the connection it arrived on: one write, with no
// dial and no retry. An envelope that did not arrive over TCP has no
// connection to answer on (errUnknownPeer).
func (n *TCPNode) Reply(env Envelope, kind string, payload []byte) error {
	if env.conn == nil {
		return fmt.Errorf("reply to %s: %w", env.From, errUnknownPeer)
	}
	buf := framePool.Get().(*[]byte)
	defer releaseFrame(buf)
	frame, err := appendFrame((*buf)[:0], Envelope{From: n.name, To: env.From, Kind: kind, Payload: payload}, nil)
	if err != nil {
		return fmt.Errorf("transport: encode frame to %s: %w", env.From, err)
	}
	*buf = frame
	if err := n.write(env.conn, env.From, frame); err != nil {
		return fmt.Errorf("transport: reply to %s: %w", env.From, err)
	}
	return nil
}

// sendOnce performs a single delivery attempt: resolve the peer, dial
// under the peer's lock if no connection is cached, write the frame, and
// on failure evict the connection it was written to (never a newer one
// another goroutine dialed — eviction happens under the same per-peer
// lock the write held).
func (n *TCPNode) sendOnce(to string, frame []byte, redial bool) error {
	select {
	case <-n.closed:
		return ErrClosed
	default:
	}
	n.mu.Lock()
	p, known := n.peers[to]
	n.mu.Unlock()
	if !known {
		return fmt.Errorf("%s: %w", to, errUnknownPeer)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if redial || p.dropped {
			n.metrics().Counter(metricRedials, "peer", to).Inc()
			p.dropped = false
		}
		nc, err := net.DialTimeout("tcp", p.addr, n.opts.DialTimeout)
		if err != nil {
			n.metrics().Counter(MetricDialErrors, "peer", to).Inc()
			return fmt.Errorf("transport: dial %s (%s): %w", to, p.addr, err)
		}
		select {
		case <-n.closed:
			// Closed while dialing: Close's sweep may already have run,
			// so this connection is ours to release.
			nc.Close()
			return ErrClosed
		default:
		}
		p.conn = &tcpConn{Conn: nc}
		n.metrics().Gauge(MetricPeerConns, "peer", to).Inc()
		n.wg.Add(1)
		go n.readLoop(p.conn, p, to)
	}
	if err := n.write(p.conn, to, frame); err != nil {
		p.conn = nil
		n.metrics().Gauge(MetricPeerConns, "peer", to).Dec()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// write puts one whole frame on c under its lock and the write deadline;
// a failed write closes c and is counted against peer.
func (n *TCPNode) write(c *tcpConn, peer string, frame []byte) error {
	c.mu.Lock()
	if n.opts.WriteTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
	}
	_, err := c.Write(frame)
	c.mu.Unlock()
	if err == nil {
		m := n.met.Load()
		m.framesOut.Inc()
		m.bytesOut.Add(int64(len(frame)))
		return nil
	}
	c.Close()
	n.metrics().Counter(metricSendErrors, "peer", peer).Inc()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		n.metrics().Counter(metricWriteTimeouts, "peer", peer).Inc()
	}
	return err
}

// backoff computes the jittered delay before retry n (1-based).
func (n *TCPNode) backoff(attempt int) time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.opts.backoff(attempt, n.rng)
}

// sleep waits d or until the node closes.
func (n *TCPNode) sleep(d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-n.closed:
		return ErrClosed
	}
}

// retryable reports whether a failed attempt is worth re-dialing:
// transient dial and write failures are; unknown peers, closed nodes and
// encoding failures are not.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, errUnknownPeer), errors.Is(err, ErrClosed):
		return false
	}
	return true
}

// Recv blocks for the next inbound envelope.
func (n *TCPNode) Recv() (Envelope, error) {
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	}
}

// RecvTimeout is Recv with a deadline.
func (n *TCPNode) RecvTimeout(d time.Duration) (Envelope, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	case <-timer.C:
		return Envelope{}, fmt.Errorf("recv after %v: %w", d, errRecvTimeout)
	}
}

// RecvContext is Recv canceled by the context.
func (n *TCPNode) RecvContext(ctx context.Context) (Envelope, error) {
	select {
	case env := <-n.inbox:
		return env, nil
	case <-n.closed:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close shuts the node down and waits for its goroutines. In-flight
// Sends fail with ErrClosed (including those parked in a retry backoff).
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		if n.listener != nil {
			n.listener.Close()
		}
		n.mu.Lock()
		peers := make([]*tcpPeer, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		// Close every connection: its readLoop may be blocked mid-frame
		// and must be unblocked before wg.Wait can return.
		for c := range n.accepted {
			c.Close()
		}
		n.mu.Unlock()
		// Peer locks are taken after the node lock is released (lock
		// order: node, then peer; never both).
		for _, p := range peers {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
		}
	})
	n.wg.Wait()
	return nil
}

// Framing constants; the package comment writes the layout out.
const (
	// frameHeader is the big-endian body length ahead of every frame.
	frameHeader = 4
	// maxFrame bounds a frame's body, on both the sending and the
	// receiving side.
	maxFrame = 16 << 20
	// readBufSize is each inbound connection's read buffer: room for a
	// handful of ≈2.3 KB request frames per read, small enough that a
	// node with hundreds of peers spends a few megabytes on it.
	readBufSize = 16 << 10
	// maxPooledFrame keeps the occasional multi-megabyte frame (a
	// replication snapshot) from pinning its buffer in the pool.
	maxPooledFrame = 64 << 10
)

var errFrameOversize = errors.New("transport: frame exceeds limit")

// framePool recycles outbound frame buffers across Sends; bodyPool
// recycles inbound frame bodies, each handed back by Envelope.Release.
var (
	framePool = sync.Pool{New: func() any { return new([]byte) }}
	bodyPool  = sync.Pool{New: func() any { return new([]byte) }}
)

func releaseFrame(buf *[]byte) {
	if cap(*buf) <= maxPooledFrame {
		framePool.Put(buf)
	}
}

func releaseBody(buf *[]byte) { bodyPool.Put(buf) }

// maxLenPrefix is the longest uvarint length prefix a field within the
// frame limit needs: maxFrame < 2^28.
const maxLenPrefix = 4

// appendFrame appends env's on-wire frame (length prefix + body) to dst.
// The payload is env.Payload, or m's bytes when m is set, encoded in
// place: they go after room for the longest length prefix and move back
// over what the actual prefix leaves, so both forms put the same bytes
// on the wire.
func appendFrame(dst []byte, env Envelope, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, wirefmt.Version) // length placeholder
	dst = wirefmt.AppendString(dst, env.From)
	dst = wirefmt.AppendString(dst, env.To)
	dst = wirefmt.AppendString(dst, env.Kind)
	if m == nil {
		dst = wirefmt.AppendBytes(dst, env.Payload)
	} else {
		at := len(dst)
		dst = m.AppendTo(append(dst, 0, 0, 0, 0)) // maxLenPrefix bytes of room
		if n := len(dst) - at - maxLenPrefix; n <= maxFrame {
			w := binary.PutUvarint(dst[at:], uint64(n))
			copy(dst[at+w:], dst[at+maxLenPrefix:])
			dst = dst[:len(dst)-maxLenPrefix+w]
		}
	}
	size := len(dst) - start - frameHeader
	if size > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", errFrameOversize, size)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(size))
	return dst, nil
}

// frameNames holds the names of the last frame a connection carried. A
// peer sends the same From, To and Kind on frame after frame, so
// readFrame reuses these strings while they repeat instead of allocating
// three per frame.
type frameNames struct{ from, to, kind string }

// readFrame reads one frame and reports its size on the wire (header +
// body). A body within maxPooledFrame is read into a pooled buffer that
// the envelope's Payload aliases, until Envelope.Release hands it back;
// a larger one is allocated for the frame alone. The three names are
// strings of their own, or names' when they repeat.
func readFrame(r *bufio.Reader, names *frameNames) (Envelope, int, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		return Envelope{}, 0, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrame {
		return Envelope{}, 0, fmt.Errorf("%w: %d bytes", errFrameOversize, size)
	}
	r.Discard(frameHeader) //nolint:errcheck // just peeked
	var buf *[]byte
	var body []byte
	if size <= maxPooledFrame {
		buf = bodyPool.Get().(*[]byte)
		if cap(*buf) < int(size) {
			*buf = make([]byte, size)
		}
		body = (*buf)[:size]
	} else {
		body = make([]byte, size)
	}
	_, err = io.ReadFull(r, body)
	var env Envelope
	if err == nil {
		env, err = decodeEnvelope(body, names)
	}
	if err != nil {
		if buf != nil {
			releaseBody(buf)
		}
		return Envelope{}, 0, err
	}
	env.buf = buf
	return env, frameHeader + int(size), nil
}

// decodeEnvelope decodes a frame body; env.Payload aliases it. The names
// come from names while they repeat, and replace them when they change.
func decodeEnvelope(body []byte, names *frameNames) (Envelope, error) {
	r := wirefmt.NewReader(body)
	from, to, kind := r.Bytes(), r.Bytes(), r.Bytes()
	env := Envelope{Payload: r.Bytes()}
	if err := r.Finish(); err != nil {
		return Envelope{}, err
	}
	env.From = reuse(&names.from, from)
	env.To = reuse(&names.to, to)
	env.Kind = reuse(&names.kind, kind)
	return env, nil
}

// reuse returns *last when it spells b, and otherwise a new string of b,
// which becomes *last.
func reuse(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// frameErrorReason maps a readFrame failure to its metricFrameErrors
// label; "" for failures of the connection rather than of the format.
func frameErrorReason(err error) string {
	switch {
	case errors.Is(err, errFrameOversize):
		return "oversize"
	case errors.Is(err, wirefmt.ErrVersion):
		return "version"
	case errors.Is(err, wirefmt.ErrMalformed):
		return "malformed"
	}
	return ""
}
