package clock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeOrdering(t *testing.T) {
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
			if got := tt.a.Before(tt.b); got != tt.before {
				t.Errorf("Before(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.before)
			}
			if got := tt.a.After(tt.b); got != tt.after {
				t.Errorf("After(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.after)
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
	if !NewInterval(1, 1).Valid() {
		t.Error("degenerate interval should be valid")
	}
	if NewInterval(2, 1).Valid() {
		t.Error("reversed interval should be invalid")
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	outer := NewInterval(0, 10)
	if !outer.ContainsInterval(NewInterval(3, 7)) {
		t.Error("inner interval should be contained")
	}
	if outer.ContainsInterval(NewInterval(3, 11)) {
		t.Error("overhanging interval should not be contained")
	}
}

func TestIntervalOverlapsAndIntersect(t *testing.T) {
	a := NewInterval(0, 5)
	b := NewInterval(3, 9)
	c := NewInterval(6, 9)
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("a should not overlap c")
	}
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
		if okx {
			return a.ContainsInterval(x) && b.ContainsInterval(x)
		}
		return !a.Overlaps(b)
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
