package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFixture runs the lint over testdata/fixture, a module that plants
// each case the rule distinguishes.
func TestFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	r, err := check(root, filepath.Join(root, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.UncalledExported has no non-test caller",
		"a.uncalledUnexported has no non-test caller",
		"a.TestOnly has no non-test caller",
		"allow-list entry a.Stale is stale",
		"allow-list entry a.Missing names no declaration",
		"allow-list entry a.NoReason gives no reason",
	}
	for _, w := range want {
		n := 0
		for _, v := range r.violations {
			if strings.Contains(v, w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d violations report %q, want 1", n, w)
		}
	}
	if len(r.violations) != len(want) {
		t.Errorf("violations:\n%s\nwant exactly the %d above", strings.Join(r.violations, "\n"), len(want))
	}
	// Not flagged: Stringy.String (fmt.Stringer), Square.Area (the
	// fixture's Shape), ProgramOnly (called by cmd/prog) and Allowed.
	if want := []string{"a.Sum"}; !slices.Equal(r.ownOnly, want) {
		t.Errorf("own-package-only names = %v, want %v", r.ownOnly, want)
	}
}
