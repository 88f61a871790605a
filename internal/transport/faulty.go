// Fault injection over any endpoint.
//
// Faulty wraps an Endpoint and perturbs its traffic — dropping, delaying
// and duplicating messages per direction, and severing whole directions
// on command — from a seedable random source, so daemon-level
// degradation (lost requests, lost replies, dead links mid-protocol) is
// reproducible in ordinary tests instead of waiting for a flaky network.
// The wrapper sits above the wire: a dropped Send reports success to the
// caller, exactly like a frame lost after the kernel buffered it.

package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Direction selects which side of a Faulty endpoint a fault applies to.
type Direction int

const (
	// Outbound faults apply to Send and Reply.
	Outbound Direction = 1 << iota
	// Inbound faults apply to Recv/RecvTimeout/RecvContext.
	Inbound
	// Both applies to either direction.
	Both = Outbound | Inbound
)

// FaultPlan configures the perturbations. Probabilities are in [0, 1];
// zero values inject nothing.
type FaultPlan struct {
	// Seed makes the fault sequence deterministic; 0 seeds from the
	// clock.
	Seed int64
	// DropOut / DropIn lose a message with the given probability. Dropped
	// sends still report success (the network ate the frame, not the
	// sender).
	DropOut, DropIn float64
	// DupOut / DupIn deliver a message twice with the given probability.
	DupOut, DupIn float64
	// DelayOut / DelayIn hold a message for a uniform random duration up
	// to the given bound before it moves on.
	DelayOut, DelayIn time.Duration
}

// FaultStats counts the injected faults, per direction.
type FaultStats struct {
	DroppedOut, DroppedIn       int
	DuplicatedOut, DuplicatedIn int
	DelayedOut, DelayedIn       int
	SeveredOut, SeveredIn       int
}

// Faulty is the fault-injecting endpoint wrapper. It is safe for
// concurrent use to the same degree as the wrapped endpoint.
type Faulty struct {
	inner Endpoint
	plan  FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	severed Direction
	pending []Envelope // duplicated inbound messages awaiting delivery
	stats   FaultStats
}

var _ Endpoint = (*Faulty)(nil)

// NewFaulty wraps the endpoint under the given fault plan.
func NewFaulty(inner Endpoint, plan FaultPlan) *Faulty {
	seed := plan.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Faulty{inner: inner, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Sever cuts the given direction(s): outbound messages vanish (Send
// still reports success, like writes into a dead link the kernel has
// buffered) and inbound messages are discarded. Heal restores them.
func (f *Faulty) Sever(d Direction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.severed |= d
}

// Heal restores the given severed direction(s).
func (f *Faulty) Heal(d Direction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.severed &^= d
}

// Stats returns the fault counters so far.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Name returns the wrapped endpoint's name.
func (f *Faulty) Name() string { return f.inner.Name() }

// Close closes the wrapped endpoint.
func (f *Faulty) Close() error { return f.inner.Close() }

// chance draws one biased coin under the lock.
func (f *Faulty) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// delay draws a uniform hold time in [0, max).
func (f *Faulty) delay(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Duration(f.rng.Int63n(int64(max)))
}

// Send perturbs and forwards one outbound message.
func (f *Faulty) Send(to, kind string, payload []byte) error {
	return f.out(func() error { return f.inner.Send(to, kind, payload) })
}

// Reply perturbs and forwards one answer, exactly as Send.
func (f *Faulty) Reply(env Envelope, kind string, payload []byte) error {
	return f.out(func() error { return f.inner.Reply(env, kind, payload) })
}

// out applies the outbound faults to one delivery.
func (f *Faulty) out(deliver func() error) error {
	f.mu.Lock()
	if f.severed&Outbound != 0 {
		f.stats.SeveredOut++
		f.mu.Unlock()
		return nil // vanished into the dead link
	}
	f.mu.Unlock()
	if f.chance(f.plan.DropOut) {
		f.count(func(s *FaultStats) { s.DroppedOut++ })
		return nil
	}
	if d := f.delay(f.plan.DelayOut); d > 0 {
		f.count(func(s *FaultStats) { s.DelayedOut++ })
		time.Sleep(d)
	}
	if err := deliver(); err != nil {
		return err
	}
	if f.chance(f.plan.DupOut) {
		f.count(func(s *FaultStats) { s.DuplicatedOut++ })
		return deliver()
	}
	return nil
}

// count applies one stats mutation under the lock.
func (f *Faulty) count(apply func(*FaultStats)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	apply(&f.stats)
}

// takePending pops a queued duplicate, if any.
func (f *Faulty) takePending() (Envelope, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) == 0 {
		return Envelope{}, false
	}
	env := f.pending[0]
	f.pending = f.pending[1:]
	return env, true
}

// admit applies inbound faults to one received envelope; deliver=false
// means the message was discarded and the caller should fetch the next.
func (f *Faulty) admit(env Envelope) (Envelope, bool) {
	f.mu.Lock()
	if f.severed&Inbound != 0 {
		f.stats.SeveredIn++
		f.mu.Unlock()
		return Envelope{}, false
	}
	f.mu.Unlock()
	if f.chance(f.plan.DropIn) {
		f.count(func(s *FaultStats) { s.DroppedIn++ })
		return Envelope{}, false
	}
	if d := f.delay(f.plan.DelayIn); d > 0 {
		f.count(func(s *FaultStats) { s.DelayedIn++ })
		time.Sleep(d)
	}
	if f.chance(f.plan.DupIn) {
		f.count(func(s *FaultStats) { s.DuplicatedIn++ })
		f.mu.Lock()
		f.pending = append(f.pending, env)
		f.mu.Unlock()
	}
	return env, true
}

// Recv blocks for the next inbound envelope that survives the plan.
func (f *Faulty) Recv() (Envelope, error) {
	for {
		if env, ok := f.takePending(); ok {
			return env, nil
		}
		env, err := f.inner.Recv()
		if err != nil {
			return Envelope{}, err
		}
		if env, ok := f.admit(env); ok {
			return env, nil
		}
	}
}

// RecvTimeout is Recv with a deadline; the deadline spans the whole
// call, discarded messages included.
func (f *Faulty) RecvTimeout(d time.Duration) (Envelope, error) {
	deadline := time.Now().Add(d)
	for {
		if env, ok := f.takePending(); ok {
			return env, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Nanosecond
		}
		env, err := f.inner.RecvTimeout(remain)
		if err != nil {
			return Envelope{}, err
		}
		if env, ok := f.admit(env); ok {
			return env, nil
		}
	}
}

// RecvContext is Recv canceled by the context.
func (f *Faulty) RecvContext(ctx context.Context) (Envelope, error) {
	for {
		if env, ok := f.takePending(); ok {
			return env, nil
		}
		env, err := f.inner.RecvContext(ctx)
		if err != nil {
			return Envelope{}, err
		}
		if env, ok := f.admit(env); ok {
			return env, nil
		}
	}
}
