//go:build !race

package sharedrsa

// raceEnabled reports whether the race detector is compiled in; alloc
// counts are compared only without it (instrumentation allocates).
const raceEnabled = false
