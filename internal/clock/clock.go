// Package clock provides the simulated notion of time used throughout the
// reproduction of Khurana–Gligor–Linn (ICDCS 2002).
//
// The paper's model of computation (Appendix C) gives every principal a
// local clock, an environment principal Pe whose clock is "real time", and
// assumes the clocks of all principals comprising a compound principal are
// synchronized. Logical time in the paper is a totally ordered set; we use
// discrete ticks (int64) so that runs, histories and certificate validity
// intervals are exactly reproducible in tests and benchmarks.
package clock

import (
	"fmt"
	"sync"
)

// Time is a point on some principal's clock. The paper orders times totally
// and compares times across principals only through the legality conditions
// of runs, which we mirror in internal/model.
type Time int64

// Infinity is the upper bound used by revocation certificates: "all
// revocation certificates have an upper bound of infinity" (paper, fn. 2).
const Infinity Time = 1<<63 - 1

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Add returns the time d ticks after t, saturating at Infinity.
func (t Time) Add(d int64) Time {
	if t == Infinity {
		return Infinity
	}
	s := Time(int64(t) + d)
	if d > 0 && s < t {
		return Infinity
	}
	return s
}

// String renders a time, using "∞" for Infinity.
func (t Time) String() string {
	if t == Infinity {
		return "∞"
	}
	return fmt.Sprintf("t%d", int64(t))
}

// Interval is a closed interval [Begin, End] of times, as in the paper's
// notation [t1, t2] ("the formula holds at all times between t1 and t2").
type Interval struct {
	Begin Time
	End   Time
}

// NewInterval returns the interval [b, e]. It is the caller's responsibility
// that b <= e; Valid reports violations.
func NewInterval(b, e Time) Interval { return Interval{Begin: b, End: e} }

// Point returns the degenerate interval [t, t].
func Point(t Time) Interval { return Interval{Begin: t, End: t} }

// Valid reports whether the interval is non-empty (Begin <= End).
func (iv Interval) Valid() bool { return iv.Begin <= iv.End }

// Contains reports whether t lies within [Begin, End].
func (iv Interval) Contains(t Time) bool { return iv.Begin <= t && t <= iv.End }

// ContainsInterval reports whether other is entirely inside iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Begin <= other.Begin && other.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one time.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Begin <= other.End && other.Begin <= iv.End
}

// Intersect returns the common sub-interval and whether it is non-empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo, hi := iv.Begin, iv.End
	if other.Begin > lo {
		lo = other.Begin
	}
	if other.End < hi {
		hi = other.End
	}
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Begin: lo, End: hi}, true
}

// String renders the interval in the paper's bracket notation.
func (iv Interval) String() string {
	return fmt.Sprintf("[%s,%s]", iv.Begin, iv.End)
}

// Clock is a monotonically advancing local clock for one principal. The
// zero value starts at time 0. Clock is safe for concurrent use: protocol
// goroutines representing the same principal may read it concurrently.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// New returns a clock positioned at start.
func New(start Time) *Clock { return &Clock{now: start} }

// Now returns the current local time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Tick advances the clock by one and returns the new time.
func (c *Clock) Tick() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now++
	return c.now
}

// Advance moves the clock forward by d ticks (d must be >= 0; negative
// advances are ignored to preserve monotonicity, the legality condition (a)
// of Appendix C). It returns the new time.
func (c *Clock) Advance(d int64) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock to t if t is later than the current time.
func (c *Clock) AdvanceTo(t Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}
