package logic

import "jointadmin/internal/clock"

// TimeKind distinguishes the three temporal qualifications of the paper:
// a single time t, a closed interval [t1,t2] ("holds at all times"), and an
// angle interval ⟨t1,t2⟩ ("holds at some time").
type TimeKind int

// Temporal qualification kinds (start at 1 per Go style; the zero value is
// no kind, so a forgotten TimeSpec covers no time).
const (
	AtTime TimeKind = iota + 1
	AllOf           // [t1, t2]
	SomeOf          // ⟨t1, t2⟩
)

// TimeSpec is the temporal subscript attached to believes/says/controls/⇒
// formulas. Observer, when non-empty, is the ", P" clock qualifier of
// Appendix A ("any time t that appears in a formula can be replaced by t,P
// ... which denotes the principal at whose clock t is measured").
type TimeSpec struct {
	Kind     TimeKind
	Interval clock.Interval // Begin==End for AtTime
	Observer string
}

// At returns the point qualification "t".
func At(t clock.Time) TimeSpec {
	return TimeSpec{Kind: AtTime, Interval: clock.Point(t)}
}

// During returns the closed qualification "[b, e]".
func During(b, e clock.Time) TimeSpec {
	return TimeSpec{Kind: AllOf, Interval: clock.NewInterval(b, e)}
}

// Sometime returns the angle qualification "⟨b, e⟩".
func Sometime(b, e clock.Time) TimeSpec {
	return TimeSpec{Kind: SomeOf, Interval: clock.NewInterval(b, e)}
}

// On returns a copy of the spec measured on the named principal's clock.
func (ts TimeSpec) On(observer string) TimeSpec {
	ts.Observer = observer
	return ts
}

// Time returns the point time of an AtTime spec (Begin of the interval for
// the other kinds, which is the earliest time the formula is claimed at).
func (ts TimeSpec) Time() clock.Time { return ts.Interval.Begin }

// End returns the last time covered by the spec.
func (ts TimeSpec) End() clock.Time { return ts.Interval.End }

// Covers reports whether the spec's guarantee applies at time t: an AtTime
// or AllOf spec covers every time in its interval; a SomeOf spec makes no
// per-time guarantee and therefore covers nothing (it only asserts
// existence within the interval).
func (ts TimeSpec) Covers(t clock.Time) bool {
	switch ts.Kind {
	case AtTime, AllOf:
		return ts.Interval.Contains(t)
	default:
		return false
	}
}

// String renders the subscript the way the paper prints it.
func (ts TimeSpec) String() string {
	var buf [64]byte
	return string(ts.appendTo(buf[:0]))
}

// appendTo appends ts's String form to b.
func (ts TimeSpec) appendTo(b []byte) []byte {
	iv := ts.Interval
	switch ts.Kind {
	case AtTime:
		b = iv.Begin.Append(b)
	case AllOf:
		b = appendInterval(b, "[", iv, "]")
	case SomeOf:
		b = appendInterval(b, "⟨", iv, "⟩")
	default:
		b = append(b, '?')
	}
	if ts.Observer != "" {
		b = append(append(b, ','), ts.Observer...)
	}
	return b
}

// appendInterval appends "left begin,end right".
func appendInterval(b []byte, left string, iv clock.Interval, right string) []byte {
	b = iv.Begin.Append(append(b, left...))
	b = iv.End.Append(append(b, ','))
	return append(b, right...)
}
