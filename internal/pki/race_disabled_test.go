//go:build !race

package pki

// raceEnabled reports whether the race detector is compiled in; alloc
// budgets are skipped under -race (instrumentation allocates).
const raceEnabled = false
