package clock

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeOrdering(t *testing.T) {
	// Time orders as its tick count, Infinity above every finite time;
	// intervals are built on that order.
	tests := []struct {
		name   string
		a, b   Time
		before bool
		after  bool
	}{
		{"earlier", 1, 2, true, false},
		{"equal", 5, 5, false, false},
		{"later", 9, 3, false, true},
		{"infinity upper", 100, Infinity, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewInterval(tt.a, tt.b).Contains(tt.a); got != !tt.after {
				t.Errorf("[%v,%v].Contains(%v) = %v, want %v", tt.a, tt.b, tt.a, got, !tt.after)
			}
			if got := Point(tt.a).Contains(tt.b); got != (!tt.before && !tt.after) {
				t.Errorf("Point(%v).Contains(%v) = %v", tt.a, tt.b, got)
			}
		})
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := Infinity.Add(5); got != Infinity {
		t.Errorf("Infinity.Add(5) = %v, want Infinity", got)
	}
	if got := Time(Infinity - 1).Add(10); got != Infinity {
		t.Errorf("near-Infinity add overflowed to %v, want Infinity", got)
	}
	if got := Time(3).Add(4); got != 7 {
		t.Errorf("Time(3).Add(4) = %v, want 7", got)
	}
	if got := Time(3).Add(-2); got != 1 {
		t.Errorf("Time(3).Add(-2) = %v, want 1", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(7).String(); got != "t7" {
		t.Errorf("Time(7).String() = %q", got)
	}
	if got := Infinity.String(); got != "∞" {
		t.Errorf("Infinity.String() = %q", got)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := NewInterval(2, 8)
	tests := []struct {
		t    Time
		want bool
	}{{1, false}, {2, true}, {5, true}, {8, true}, {9, false}}
	for _, tt := range tests {
		if got := iv.Contains(tt.t); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestIntervalValid(t *testing.T) {
	if !NewInterval(1, 1).Contains(1) {
		t.Error("degenerate interval should hold its one time")
	}
	if r := NewInterval(2, 1); r.Contains(1) || r.Contains(2) {
		t.Error("reversed interval should be empty")
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	// An interval contains another exactly when their intersection is
	// the other.
	outer := NewInterval(0, 10)
	if got, ok := outer.Intersect(NewInterval(3, 7)); !ok || got != NewInterval(3, 7) {
		t.Error("inner interval should be contained")
	}
	if got, _ := outer.Intersect(NewInterval(3, 11)); got == NewInterval(3, 11) {
		t.Error("overhanging interval should not be contained")
	}
}

func TestIntervalOverlapsAndIntersect(t *testing.T) {
	a := NewInterval(0, 5)
	b := NewInterval(3, 9)
	c := NewInterval(6, 9)
	got, ok := a.Intersect(b)
	if !ok || got != NewInterval(3, 5) {
		t.Errorf("Intersect = %v, %v; want [3,5], true", got, ok)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint intervals should not intersect")
	}
}

func TestIntervalPoint(t *testing.T) {
	p := Point(4)
	if !p.Contains(4) || p.Contains(3) || p.Contains(5) {
		t.Errorf("Point(4) = %v misbehaves", p)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := New(10)
	if c.Now() != 10 {
		t.Fatalf("Now = %v, want 10", c.Now())
	}
	if c.Tick() != 11 {
		t.Fatalf("Tick = %v, want 11", c.Now())
	}
	c.Advance(-5) // ignored
	if c.Now() != 11 {
		t.Errorf("negative Advance changed clock to %v", c.Now())
	}
	c.Advance(4)
	if c.Now() != 15 {
		t.Errorf("Advance(4) -> %v, want 15", c.Now())
	}
	c.AdvanceTo(12) // backwards, ignored
	if c.Now() != 15 {
		t.Errorf("AdvanceTo(12) moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Errorf("AdvanceTo(20) -> %v", c.Now())
	}
}

func TestClockConcurrentTicks(t *testing.T) {
	c := New(0)
	const goroutines, ticks = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ticks; j++ {
				c.Tick()
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != goroutines*ticks {
		t.Errorf("concurrent ticks lost: got %v, want %d", got, goroutines*ticks)
	}
}

// TestClockNeverRunsBackwards: with Tick, Advance and AdvanceTo racing
// (run it under -race), no goroutine ever reads a time earlier than one
// it read or set before, each mutator's result is at least what it asked
// for, and no tick is lost.
func TestClockNeverRunsBackwards(t *testing.T) {
	c := New(0)
	const workers, rounds = 6, 2000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seen Time
			for i := 0; i < rounds; i++ {
				var got, floor Time
				switch (w + i) % 4 {
				case 0:
					got, floor = c.Tick(), seen+1
				case 1:
					got, floor = c.Advance(int64(i%3)), seen
				case 2:
					target := seen + Time(i%7)
					got, floor = c.AdvanceTo(target), target
				default:
					got, floor = c.Now(), seen
				}
				if got < floor {
					errs <- fmt.Sprintf("worker %d round %d: read %v after %v (floor %v)", w, i, got, seen, floor)
					return
				}
				seen = got
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Every Tick is counted, whatever AdvanceTo and Advance did beside it.
	ticks := 0
	for w := 0; w < workers; w++ {
		for i := 0; i < rounds; i++ {
			if (w+i)%4 == 0 {
				ticks++
			}
		}
	}
	if got := c.Now(); got < Time(ticks) {
		t.Errorf("clock at %v after %d ticks", got, ticks)
	}
}

// TestClockAdvanceSaturates: Advance stops at Infinity instead of
// wrapping around to the past.
func TestClockAdvanceSaturates(t *testing.T) {
	c := New(Infinity - 3)
	if got := c.Advance(10); got != Infinity {
		t.Errorf("Advance past Infinity = %v, want Infinity", got)
	}
	if got := c.Now(); got != Infinity {
		t.Errorf("Now = %v after a saturating Advance, want Infinity", got)
	}
}

// Property: interval intersection is commutative and contained in both.
func TestIntervalIntersectProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := NewInterval(Time(min64(a1, a2)), Time(max64(a1, a2)))
		b := NewInterval(Time(min64(b1, b2)), Time(max64(b1, b2)))
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		if okx != oky || (okx && x != y) {
			return false
		}
		inside := func(iv Interval) bool { return iv.Begin <= x.Begin && x.End <= iv.End }
		if okx {
			return inside(a) && inside(b)
		}
		return a.End < b.Begin || b.End < a.Begin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min64(a, b int16) int64 {
	if a < b {
		return int64(a)
	}
	return int64(b)
}

func max64(a, b int16) int64 {
	if a > b {
		return int64(a)
	}
	return int64(b)
}
