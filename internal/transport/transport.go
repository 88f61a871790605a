// Package transport provides the message-passing substrate the daemon,
// its clients and the follower fleet run on: TCPNode, the one network,
// which the runnable servers deploy and every protocol test runs on over
// loopback, and Faulty, the one fault injector, which wraps a node
// behind the Endpoint interface.
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
// logged and closed; there is no negotiation and no fallback decoder.
// Faulty sits above the frames: it passes the Envelope values its node
// reads and sends, and frames nothing itself.
package transport

import (
	"context"
	"errors"
	"time"
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
	// ErrClosed indicates the endpoint has been closed.
	ErrClosed = errors.New("transport: closed")
	// errUnknownPeer indicates a send to an unregistered name.
	errUnknownPeer = errors.New("transport: unknown peer")
	// errRecvTimeout indicates RecvTimeout expired with no message.
	errRecvTimeout = errors.New("transport: receive timeout")
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
