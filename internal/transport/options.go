package transport

import (
	"math/rand"
	"time"
)

// Options configures a TCPNode's resilience behaviour: connection
// deadlines and the bounded retry policy Send runs under. The zero value
// selects the defaults below; pass it to ListenTCP as an optional
// trailing argument.
type Options struct {
	// DialTimeout bounds each connection attempt to a peer (default 5s).
	// Dials run under the peer's own lock, so a slow dial to a dead peer
	// never blocks sends to healthy peers.
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 10s). A peer
	// that accepts the connection but stops reading cannot wedge a sender
	// forever; the write fails, the connection is dropped, and the retry
	// policy takes over. Negative disables the deadline.
	WriteTimeout time.Duration
	// Attempts bounds how many times Send tries to deliver one frame
	// (default 3). Each failed attempt drops the peer's connection, backs
	// off, and re-dials; 1 disables retries.
	Attempts int
	// RetryBase is the first backoff delay (default 25ms); subsequent
	// attempts double it up to RetryMax. The actual sleep is jittered
	// uniformly over [d/2, d] to avoid retry synchronization.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 1s).
	RetryMax time.Duration
	// Seed makes the retry jitter deterministic for tests; 0 (the
	// default) seeds from the clock.
	Seed int64
}

// Default option values.
const (
	DefaultDialTimeout  = 5 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultAttempts     = 3
	DefaultRetryBase    = 25 * time.Millisecond
	defaultRetryMax     = time.Second
)

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.Attempts <= 0 {
		o.Attempts = DefaultAttempts
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = defaultRetryMax
	}
	return o
}

// backoff returns the jittered delay before retry attempt n (1-based):
// exponential in n, capped at RetryMax, jittered over [d/2, d].
func (o Options) backoff(n int, rng *rand.Rand) time.Duration {
	d := o.RetryBase << uint(n-1)
	if d <= 0 || d > o.RetryMax { // <= 0 guards shift overflow
		d = o.RetryMax
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// newRNG builds the node's jitter source from the configured seed.
func (o Options) newRNG() *rand.Rand {
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}
