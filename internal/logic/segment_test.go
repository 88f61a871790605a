package logic

import (
	"strings"
	"testing"
)

// sealedProof builds a proof with two sealed base steps.
func sealedProof(t *testing.T) *Proof {
	t.Helper()
	p := NewProof("P")
	p.Append(RuleAssumption, nil, Prop{Name: "base1"}, 1, "base")
	p.Append(RuleAssumption, nil, Prop{Name: "base2"}, 1, "base")
	p.Seal()
	return p
}

func TestRecordSplice(t *testing.T) {
	base := sealedProof(t)

	// Record a segment citing both a base step (external premise) and a
	// sibling segment step (internal premise).
	rec := base.Clone()
	from := rec.Len()
	a := rec.Append(RuleResidualLink, []int{1}, Prop{Name: "edge"}, 2, "link")
	rec.Append(RuleResidualCompile, []int{a, 2}, Prop{Name: "summary"}, 2, "sum")
	seg, err := rec.Record(from)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if seg.Len() != 2 {
		t.Fatalf("segment has %d steps, want 2", seg.Len())
	}

	// Splice onto a fresh clone that already grew its own suffix: the
	// spliced IDs must shift past the existing steps while external
	// premises keep pointing at the shared base.
	dst := base.Clone()
	dst.Append(RuleAssumption, nil, Prop{Name: "other"}, 3, "unrelated")
	ids, err := dst.Splice(seg)
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if err := dst.Check(); err != nil {
		t.Fatalf("spliced proof fails Check: %v", err)
	}
	sum, ok := step(dst, ids[from+2])
	if !ok {
		t.Fatalf("summary step %d missing after splice", ids[from+2])
	}
	wantEdge, wantBase := ids[from+1], 2
	if sum.Premises[0] != wantEdge || sum.Premises[1] != wantBase {
		t.Fatalf("summary premises = %v, want [%d %d]", sum.Premises, wantEdge, wantBase)
	}
	// The recorded segment is untouched by the splice: spliced again,
	// aligned, it renders exactly as recorded.
	again := base.Clone()
	if _, err := again.Splice(seg); err != nil {
		t.Fatalf("second Splice: %v", err)
	}
	if again.String() != rec.String() {
		t.Fatalf("splice mutated the recorded segment:\n--- got ---\n%s\n--- want ---\n%s", again.String(), rec.String())
	}
}

// TestSpliceAligned pins the residual fast path: splicing a segment
// onto a proof of exactly start−1 steps appends the steps verbatim —
// identical IDs, premises, and rendering to the shifted slow path's
// renumbering — and returns a nil map, since every ID maps to itself.
func TestSpliceAligned(t *testing.T) {
	base := sealedProof(t)

	rec := base.Clone()
	from := rec.Len()
	a := rec.Append(RuleResidualLink, []int{1}, Prop{Name: "edge"}, 2, "link")
	rec.Append(RuleResidualCompile, []int{a, 2}, Prop{Name: "summary"}, 2, "sum")
	seg, err := rec.Record(from)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}

	dst := base.Clone()
	ids, err := dst.Splice(seg)
	if err != nil {
		t.Fatalf("aligned Splice: %v", err)
	}
	if ids != nil {
		t.Fatalf("aligned Splice returned a map %v, want nil (identity)", ids)
	}
	if err := dst.Check(); err != nil {
		t.Fatalf("aligned splice fails Check: %v", err)
	}
	if dst.String() != rec.String() {
		t.Fatalf("aligned splice diverges from the recorded proof:\n--- got ---\n%s\n--- want ---\n%s", dst.String(), rec.String())
	}
	sum, ok := step(dst, from+2)
	if !ok || sum.Premises[0] != a || sum.Premises[1] != 2 {
		t.Fatalf("aligned summary premises = %v (ok=%v), want [%d 2]", sum.Premises, ok, a)
	}
	// Appending past the splice keeps numbering contiguous.
	if id := dst.Append(RuleResidualLeaf, []int{sum.ID}, Prop{Name: "leaf"}, 3, ""); id != from+3 {
		t.Fatalf("post-splice append got ID %d, want %d", id, from+3)
	}
}

func TestRecordBounds(t *testing.T) {
	p := sealedProof(t)
	if _, err := p.Record(0); err == nil {
		t.Fatal("Record reaching into the sealed prefix must fail")
	}
	if _, err := p.Record(p.Len() + 1); err == nil {
		t.Fatal("Record past the end must fail")
	}
	seg, err := p.Record(p.Len())
	if err != nil || seg.Len() != 0 {
		t.Fatalf("empty Record = (%v, %v), want empty segment", seg.Len(), err)
	}
}

func TestSpliceRejectsDanglingExternalPremise(t *testing.T) {
	big := sealedProof(t)
	bc := big.Clone()
	bc.Append(RuleAssumption, nil, Prop{Name: "extra"}, 2, "")
	from := bc.Len()
	bc.Append(RuleResidualLeaf, []int{3}, Prop{Name: "leaf"}, 2, "")
	seg, err := bc.Record(from)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	// A two-step proof cannot host a segment whose external premises
	// reference step 3.
	small := sealedProof(t)
	if _, err := small.Splice(seg); err == nil {
		t.Fatal("Splice onto a shorter proof must fail")
	}
}

func TestStringFrom(t *testing.T) {
	p := sealedProof(t)
	c := p.Clone()
	c.Append(RuleResidualLeaf, nil, Prop{Name: "leafA"}, 2, "")
	c.Append(RuleResidualLeaf, nil, Prop{Name: "leafB"}, 2, "")

	suffix := c.StringFrom(p.Len())
	if strings.Contains(suffix, "base1") || strings.Contains(suffix, "Derivation at") {
		t.Fatalf("StringFrom leaked prefix or header:\n%s", suffix)
	}
	if !strings.Contains(suffix, "leafA") || !strings.Contains(suffix, "leafB") {
		t.Fatalf("StringFrom missing suffix steps:\n%s", suffix)
	}
	// Prefix + suffix must reassemble the exact full rendering.
	if got := p.String() + suffix; got != c.String() {
		t.Fatalf("prefix+suffix != full rendering:\n--- got ---\n%s\n--- want ---\n%s", got, c.String())
	}
	if p.StringFrom(0) == "" {
		t.Fatal("StringFrom(0) must render all steps")
	}
}
