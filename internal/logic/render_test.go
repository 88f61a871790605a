package logic

import (
	"fmt"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

// The renderers as they were written before constants, tuples and "G
// says X" rendered through one append buffer: string concatenation, a
// join over the items and fmt for the time subscripts. They are the
// oracle the append renderers are held to, byte for byte.

func oracleTime(t clock.Time) string {
	if t == clock.Infinity {
		return "∞"
	}
	return fmt.Sprintf("t%d", int64(t))
}

func oracleTimeSpec(ts TimeSpec) string {
	var core string
	switch ts.Kind {
	case AtTime:
		core = oracleTime(ts.Interval.Begin)
	case AllOf:
		core = fmt.Sprintf("[%s,%s]", oracleTime(ts.Interval.Begin), oracleTime(ts.Interval.End))
	case SomeOf:
		core = fmt.Sprintf("⟨%s,%s⟩", oracleTime(ts.Interval.Begin), oracleTime(ts.Interval.End))
	default:
		core = "?"
	}
	if ts.Observer != "" {
		return core + "," + ts.Observer
	}
	return core
}

func oracleMessage(m Message) string {
	switch v := m.(type) {
	case Const:
		return "“" + v.Value + "”"
	case Tuple:
		parts := make([]string, len(v.Items))
		for i, x := range v.Items {
			parts[i] = oracleMessage(x)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case Signed:
		return "⟦" + oracleMessage(v.X) + "⟧" + string(v.K) + "⁻¹"
	default:
		return m.String()
	}
}

func oracleGroupSays(g GroupSays) string {
	return "Group(" + g.G.Name + ")" + " says_" + oracleTimeSpec(g.T) + " " + oracleMessage(g.X)
}

// termGen builds terms from fuzz input: shape bytes choose the structure,
// and every string is one of three fuzzed words or a concatenation of two.
type termGen struct {
	shape []byte
	words [3]string
}

func (g *termGen) next() byte {
	if len(g.shape) == 0 {
		return 0
	}
	b := g.shape[0]
	g.shape = g.shape[1:]
	return b
}

func (g *termGen) word() string {
	b := g.next()
	w := g.words[b%3]
	if b&0x80 != 0 {
		w += g.words[(b>>2)%3]
	}
	return w
}

func (g *termGen) message(depth int) Message {
	switch b := g.next(); {
	case b%4 == 1 && depth < 4:
		items := make([]Message, g.next()%4)
		for i := range items {
			items[i] = g.message(depth + 1)
		}
		return Tuple{Items: items}
	case b%4 == 2 && depth < 4:
		return Sign(g.message(depth+1), KeyID(g.word()))
	case b%4 == 3:
		return AsMessage(Prop{Name: g.word()})
	default:
		return Const{Value: g.word()}
	}
}

// FuzzRendering holds the append renderers of constants, tuples, time
// subscripts and "G says X" to the concatenating oracle, and the
// term-first MessageEqual to equality of renderings, on generated pairs —
// including terms that differ but render alike, through a constant whose
// value contains ”, “. The subscript's kind is kind%4 (0 is invalid), and
// bit 2 of kind adds the observer w2.
func FuzzRendering(f *testing.F) {
	// (“a”, “b”) as one constant and as two: different terms, one rendering.
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 1, 0, 2}, "a”, “b", "a", "b", uint8(AtTime), int64(100), int64(100))
	// Tuples of the same shape that differ in one constant.
	f.Add([]byte{1, 2, 0, 0, 0, 1, 1, 2, 0, 0, 0, 2}, "write", "O", "P", uint8(AtTime|4), int64(5), int64(5))
	// The same tuple twice, nested, with a signed item.
	f.Add([]byte{1, 2, 0, 1, 2, 0, 2, 1, 2, 0, 1, 2, 0, 2}, "write", "O", "k", uint8(AllOf|4), int64(-3), int64(clock.Infinity))
	f.Add([]byte{1, 3, 0, 0, 0, 1, 0, 0x82, 1, 3, 0, 0, 0, 1, 0, 0x82}, "write", "O", "payload#e397b4cc", uint8(SomeOf), int64(0), int64(7))
	f.Add([]byte{2, 3, 0, 1, 1, 3, 2}, "G_write", "P", "", uint8(0), int64(clock.Infinity), int64(1))
	f.Fuzz(func(t *testing.T, shape []byte, w0, w1, w2 string, kind uint8, begin, end int64) {
		g := &termGen{shape: shape, words: [3]string{w0, w1, w2}}
		a, b := g.message(0), g.message(0)
		for _, m := range []Message{a, b} {
			if got, want := m.String(), oracleMessage(m); got != want {
				t.Fatalf("%#v renders %q, oracle %q", m, got, want)
			}
		}
		ts := TimeSpec{Kind: TimeKind(kind % 4), Interval: clock.Interval{Begin: clock.Time(begin), End: clock.Time(end)}}
		if kind&4 != 0 {
			ts.Observer = w2
		}
		gs := GroupSays{G: G(w0), T: ts, X: a}
		if got, want := gs.String(), oracleGroupSays(gs); got != want {
			t.Fatalf("%#v renders %q, oracle %q", gs, got, want)
		}
		if got, want := gs.T.String(), oracleTimeSpec(gs.T); got != want {
			t.Fatalf("%#v renders %q, oracle %q", gs.T, got, want)
		}
		want := oracleMessage(a) == oracleMessage(b)
		if got := MessageEqual(a, b); got != want {
			t.Fatalf("MessageEqual(%q, %q) = %v, renderings equal: %v", oracleMessage(a), oracleMessage(b), got, want)
		}
		if !MessageEqual(a, a) || !MessageEqual(b, b) {
			t.Fatalf("a message differs from itself: %q, %q", oracleMessage(a), oracleMessage(b))
		}
	})
}
