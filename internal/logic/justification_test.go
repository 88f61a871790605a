package logic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"jointadmin/internal/clock"
)

// closureOracle is the premise closure of the steps with ID > after,
// computed over the whole step list: the IDs Justification must keep.
func closureOracle(steps []Step, after int) []int {
	keep := map[int]bool{}
	var visit func(id int)
	visit = func(id int) {
		if keep[id] {
			return
		}
		keep[id] = true
		for _, pr := range steps[id-1].Premises {
			visit(pr)
		}
	}
	for _, s := range steps[after:] {
		visit(s.ID)
	}
	var ids []int
	for id := range keep {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestJustificationIsPremiseClosure: over a proof sealed more than
// maxLayerDepth times — so its prefix is a flattened segment with later
// segments on top — the justification of a suffix keeps exactly the
// suffix and the steps it cites, transitively, under their original IDs
// and in ID order, each as the proof holds it; and its rendering is the
// proof's own header followed by a subsequence of the proof's lines.
func TestJustificationIsPremiseClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cite := func(p *Proof) []int {
		var ps []int
		for range rng.Intn(3) {
			if n := p.Len(); n > 0 {
				ps = append(ps, 1+rng.Intn(n))
			}
		}
		return ps
	}
	p := NewProof("P")
	const rounds = 2*maxLayerDepth + 3
	for r := range rounds {
		for i := range 1 + rng.Intn(4) {
			p.Append(RuleAssumption, cite(p), Prop{Name: fmt.Sprintf("r%d.%d", r, i)}, clock.Time(r), "")
		}
		p.Seal()
	}
	if p.base.parent == nil || p.base.chain()[0].start != 1 || p.base.depth >= rounds {
		t.Fatalf("prefix is not a flattened segment under later ones (depth %d)", p.base.depth)
	}

	for trial := range 20 {
		q := p.Clone()
		after := q.Len()
		for i := range 1 + rng.Intn(3) {
			q.Append(RuleRevocation, cite(q), Prop{Name: fmt.Sprintf("s%d.%d", trial, i)}, rounds, "")
		}
		all := q.Steps()
		d := q.Justification()

		var ids []int
		for _, s := range d.steps {
			ids = append(ids, s.ID)
			if !slices.Equal(s.Premises, all[s.ID-1].Premises) || s.Conclusion != all[s.ID-1].Conclusion {
				t.Errorf("trial %d: kept step %d differs from the proof's: %+v vs %+v", trial, s.ID, s, all[s.ID-1])
			}
		}
		if want := closureOracle(all, after); !slices.Equal(ids, want) {
			t.Errorf("trial %d: kept IDs %v, want the premise closure %v", trial, ids, want)
		}

		lines := strings.Split(d.String(), "\n")
		whole := strings.Split(q.String(), "\n")
		if lines[0] != whole[0] {
			t.Errorf("trial %d: header %q, want the proof's %q", trial, lines[0], whole[0])
		}
		rest := whole[1:]
		for _, l := range lines[1:] {
			i := slices.Index(rest, l)
			if i < 0 {
				t.Fatalf("trial %d: line %q is not a later line of the proof's rendering", trial, l)
			}
			rest = rest[i+1:]
		}
	}

	// A sealed proof has no suffix: nothing to justify.
	if got := p.Justification().String(); got != "Derivation at P:\n" {
		t.Errorf("justification of a sealed proof = %q, want the header alone", got)
	}
}
