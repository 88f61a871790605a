// Command prog is the fixture's program: it calls names the lint must
// not flag.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	a.ProgramOnly()
	a.Stale()
	fmt.Println(a.Stringy{}, a.Total([]a.Shape{a.Square{}}))
}
