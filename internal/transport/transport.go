// Package transport provides the message-passing substrate the daemon,
// its clients and the follower fleet run on: an in-memory network (used
// by tests), a TCP implementation (used by the runnable servers), and
// Faulty, the one fault injector, which wraps either. Both networks
// satisfy the same interfaces so every protocol is written once.
//
// On TCP an Envelope travels as one frame, encoded and decoded by hand
// in the internal/wirefmt encoding (no reflection, no per-message codec
// state):
//
//	frame := length(4 bytes, big-endian, = len(body) ≤ 16 MB) body
//	body  := version(1 byte)
//	         From    uvarint(n) n bytes
//	         To      uvarint(n) n bytes
//	         Kind    uvarint(n) n bytes
//	         Payload uvarint(n) n bytes
//
// with nothing after Payload. An answer goes back on the connection its
// request came in on (Reply), never to an address named in a frame. A
// connection whose frame breaks this layout — including one that speaks
// another version of it — is counted (transport_frame_errors_total),
// logged and closed; there is no negotiation and no fallback decoder. The in-memory network and the
// Faulty wrapper pass Envelope values and never frame anything.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jointadmin/internal/obs"
)

// Envelope is one routed protocol message.
type Envelope struct {
	// From is the sender's registered endpoint name.
	From string
	// To is the destination endpoint name.
	To string
	// Kind tags the message type (e.g. repl.records); multiplexed
	// protocols dispatch on it.
	Kind string
	// Payload is the opaque message body: a binary daemon Command or
	// Reply, or a replication message. On an envelope a TCPNode read, it
	// may lie in a pooled buffer that Release hands back.
	Payload []byte
	// conn is the TCP connection the envelope arrived on; Reply answers on it.
	conn *tcpConn
	// buf is the pooled frame buffer Payload lies in (nil when it owns no
	// pooled buffer).
	buf *[]byte
}

// Release hands the envelope's frame buffer back for the next frame a
// TCPNode reads, and clears Payload. Call it once the payload has been
// decoded into values of their own, and only on the one copy of the
// envelope that still refers to it: a released payload's bytes are
// overwritten by a later frame. An envelope that is never released costs
// the garbage collector its buffer, nothing else. Releasing an envelope
// that holds no pooled buffer only clears Payload.
func (e *Envelope) Release() {
	if e.buf != nil {
		releaseBody(e.buf)
		e.buf = nil
	}
	e.Payload = nil
}

// Message is a payload that encodes itself. SendMessage has it append
// its bytes straight into the frame that carries them, so the sender
// needs no buffer of its own for it.
type Message interface {
	// AppendTo appends the message's bytes to b and returns the result.
	AppendTo(b []byte) []byte
}

// Sentinel errors.
var (
	// ErrClosed indicates the endpoint or network has been closed.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownPeer indicates a send to an unregistered name.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrInboxFull indicates the destination's inbox buffer is full: the
	// receiver is not draining fast enough and the sender must back off.
	ErrInboxFull = errors.New("transport: inbox full")
	// ErrRecvTimeout indicates RecvTimeout expired with no message.
	ErrRecvTimeout = errors.New("transport: receive timeout")
)

// Endpoint is one principal's attachment to the network.
type Endpoint interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send routes a message to the named peer.
	Send(to, kind string, payload []byte) error
	// SendMessage is Send for a payload that encodes itself.
	SendMessage(to, kind string, m Message) error
	// Reply answers a received envelope where it came from.
	Reply(env Envelope, kind string, payload []byte) error
	// Recv blocks until a message arrives or the endpoint closes.
	Recv() (Envelope, error)
	// RecvTimeout is Recv with a deadline.
	RecvTimeout(d time.Duration) (Envelope, error)
	// RecvContext is Recv canceled by the context (ctx.Err is returned).
	RecvContext(ctx context.Context) (Envelope, error)
	// Close detaches the endpoint.
	Close() error
}

// Memory is the in-memory network.
type Memory struct {
	// reg receives delivery metrics (Instrument); nil drops them.
	reg *obs.Registry

	mu      sync.Mutex
	inboxes map[string]chan Envelope
	closed  bool
}

// MetricInboxFull counts sends refused because the destination inbox was
// full (in-memory network only).
const MetricInboxFull = "transport_inbox_full_total"

// Instrument injects a metrics registry: deliveries count under
// transport_frames_total/transport_bytes_total (dir="out") and refused
// sends under transport_inbox_full_total. Call it before traffic flows;
// nil (the default) disables the accounting.
func (m *Memory) Instrument(reg *obs.Registry) { m.reg = reg }

// NewMemory returns an empty in-memory network. It injects no faults:
// wrap its endpoints in Faulty for that.
func NewMemory() *Memory {
	return &Memory{inboxes: make(map[string]chan Envelope)}
}

// Endpoint registers (or re-attaches) the named endpoint. The inbox buffer
// is sized generously; protocols in this repository are request/response
// and never approach it.
func (m *Memory) Endpoint(name string) Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.inboxes[name]
	if !ok {
		ch = make(chan Envelope, 1024)
		m.inboxes[name] = ch
	}
	return &memEndpoint{net: m, name: name, inbox: ch}
}

// Close shuts the network down; all pending and future Recv calls fail.
func (m *Memory) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, ch := range m.inboxes {
		close(ch)
	}
}

func (m *Memory) send(env Envelope) error {
	// The inbox send happens under the lock: Close closes the inbox
	// channels, and sending into a channel concurrently with its close is
	// a race (and a panic). The send itself is non-blocking, so holding
	// the lock across it cannot deadlock.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	ch, ok := m.inboxes[env.To]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%s: %w", env.To, ErrUnknownPeer)
	}
	select {
	case ch <- env:
		m.mu.Unlock()
		m.reg.Counter(MetricFrames, "dir", "out").Inc()
		m.reg.Counter(MetricBytes, "dir", "out").Add(int64(len(env.Payload)))
		return nil
	default:
		m.mu.Unlock()
		m.reg.Counter(MetricInboxFull).Inc()
		return fmt.Errorf("%s: %w", env.To, ErrInboxFull)
	}
}

type memEndpoint struct {
	net   *Memory
	name  string
	inbox chan Envelope
}

var _ Endpoint = (*memEndpoint)(nil)

func (e *memEndpoint) Name() string { return e.name }

func (e *memEndpoint) Send(to, kind string, payload []byte) error {
	p := make([]byte, len(payload))
	copy(p, payload)
	return e.net.send(Envelope{From: e.name, To: to, Kind: kind, Payload: p})
}

func (e *memEndpoint) SendMessage(to, kind string, m Message) error {
	return e.net.send(Envelope{From: e.name, To: to, Kind: kind, Payload: m.AppendTo(nil)})
}

func (e *memEndpoint) Reply(env Envelope, kind string, payload []byte) error {
	return e.Send(env.From, kind, payload)
}

func (e *memEndpoint) Recv() (Envelope, error) {
	env, ok := <-e.inbox
	if !ok {
		return Envelope{}, ErrClosed
	}
	return env, nil
}

func (e *memEndpoint) RecvTimeout(d time.Duration) (Envelope, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case env, ok := <-e.inbox:
		if !ok {
			return Envelope{}, ErrClosed
		}
		return env, nil
	case <-timer.C:
		return Envelope{}, fmt.Errorf("recv after %v: %w", d, ErrRecvTimeout)
	}
}

func (e *memEndpoint) RecvContext(ctx context.Context) (Envelope, error) {
	select {
	case env, ok := <-e.inbox:
		if !ok {
			return Envelope{}, ErrClosed
		}
		return env, nil
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

func (e *memEndpoint) Close() error { return nil }
