package logic

import (
	"testing"

	"jointadmin/internal/clock"
)

func TestTimeSpecConstructors(t *testing.T) {
	at := At(5)
	if at.Kind != AtTime || at.Time() != 5 || at.End() != 5 {
		t.Errorf("At(5) = %+v", at)
	}
	d := During(2, 8)
	if d.Kind != AllOf || d.Time() != 2 || d.End() != 8 {
		t.Errorf("During = %+v", d)
	}
	s := Sometime(3, 9)
	if s.Kind != SomeOf || s.Time() != 3 || s.End() != 9 {
		t.Errorf("Sometime = %+v", s)
	}
}

func TestTimeSpecCovers(t *testing.T) {
	if !At(5).Covers(5) || At(5).Covers(6) {
		t.Error("point coverage wrong")
	}
	d := During(2, 8)
	if !d.Covers(2) || !d.Covers(8) || d.Covers(9) || d.Covers(1) {
		t.Error("interval coverage wrong")
	}
	// ⟨t1,t2⟩ guarantees existence only — it covers no specific time.
	if Sometime(2, 8).Covers(5) {
		t.Error("angle interval should cover nothing pointwise")
	}
}

func TestTimeSpecObserver(t *testing.T) {
	ts := During(1, 2).On("P")
	if ts.Observer != "P" {
		t.Errorf("Observer = %q", ts.Observer)
	}
	if got := ts.String(); got != "[t1,t2],P" {
		t.Errorf("String = %q", got)
	}
	if got := At(7).String(); got != "t7" {
		t.Errorf("String = %q", got)
	}
	if got := Sometime(1, clock.Infinity).String(); got != "⟨t1,∞⟩" {
		t.Errorf("String = %q", got)
	}
	if got := (TimeSpec{}).String(); got != "?" {
		t.Errorf("invalid spec String = %q", got)
	}
}
