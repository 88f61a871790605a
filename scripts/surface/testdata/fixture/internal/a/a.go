// Package a plants the cases the surface lint's self-test expects.
package a

// UncalledExported has no caller: flagged.
func UncalledExported() {}

// uncalledUnexported has no caller: flagged.
func uncalledUnexported() {}

// TestOnly is called from a_test.go only: flagged.
func TestOnly() {}

// ProgramOnly is called from cmd/prog only: a program is a caller.
func ProgramOnly() {}

// Stale is allow-listed but cmd/prog calls it: the entry is flagged.
func Stale() {}

// Allowed has no caller and a valid allow-list entry.
func Allowed() {}

// NoReason has no caller and an allow-list entry with no reason: the
// entry is flagged.
func NoReason() {}

// Stringy's String satisfies fmt.Stringer, so fmt calls it.
type Stringy struct{}

func (Stringy) String() string { return "stringy" }

// Shape is an interface declared in the fixture.
type Shape interface{ Area() float64 }

// Square's Area satisfies Shape, so Total calls it.
type Square struct{}

func (Square) Area() float64 { return 1 }

// Total sums the areas.
func Total(shapes []Shape) float64 {
	var areas []float64
	for _, s := range shapes {
		areas = append(areas, s.Area())
	}
	return Sum(areas)
}

// Sum is exported but named only inside this package.
func Sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
