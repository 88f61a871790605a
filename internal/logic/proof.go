package logic

import (
	"fmt"
	"slices"
	"strings"

	"jointadmin/internal/clock"
)

// Step is one line of a derivation: a formula concluded from premises by a
// named inference rule or axiom. Premises refer to earlier step IDs.
type Step struct {
	ID         int
	Rule       string
	Premises   []int
	Conclusion Formula
	At         clock.Time
	Note       string
}

// String renders the step as a numbered proof line.
func (s Step) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3d. %s", s.ID, s.Conclusion.String())
	fmt.Fprintf(&b, "   [%s", s.Rule)
	if len(s.Premises) > 0 {
		fmt.Fprintf(&b, " from %v", s.Premises)
	}
	b.WriteString("]")
	if s.Note != "" {
		b.WriteString(" — ")
		b.WriteString(s.Note)
	}
	return b.String()
}

// proofSeg is one immutable segment of a sealed proof prefix. Segments are
// never modified after publication and are shared by every proof cloned
// from the same sealed base.
type proofSeg struct {
	parent *proofSeg
	steps  []Step
	start  int // global 1-based ID of steps[0]
	depth  int // chain length including this segment
}

// chain returns the segments oldest first.
func (s *proofSeg) chain() []*proofSeg {
	if s == nil {
		return nil
	}
	out := make([]*proofSeg, s.depth)
	for i := s.depth - 1; i >= 0; i-- {
		out[i] = s
		s = s.parent
	}
	return out
}

// Proof is an append-only derivation log. The engine threads every rule
// application through a Proof so that authorization decisions carry a full
// machine-checkable trace (the audit requirement of Section 2).
//
// Like the belief store, the proof is layered: an immutable shared prefix
// (built by Seal) plus a per-request suffix. Suffix step IDs continue past
// the prefix, so premise references into the shared base keep working
// unchanged and Clone of a sealed proof is O(1) regardless of prefix
// length.
type Proof struct {
	owner   string
	base    *proofSeg // immutable shared prefix; nil when none
	baseLen int       // total steps in base segments
	steps   []Step    // mutable suffix
}

// NewProof returns an empty proof owned by (derived at) the named
// principal, typically the verifying server P.
func NewProof(owner string) *Proof {
	return &Proof{owner: owner}
}

// Append records a step and returns its ID (1-based, matching the paper's
// numbered statements).
func (p *Proof) Append(rule string, premises []int, conclusion Formula, at clock.Time, note string) int {
	id := p.baseLen + len(p.steps) + 1
	ps := make([]int, len(premises))
	copy(ps, premises)
	p.steps = append(p.steps, Step{
		ID:         id,
		Rule:       rule,
		Premises:   ps,
		Conclusion: conclusion,
		At:         at,
		Note:       note,
	})
	return id
}

// Seal freezes the current suffix into the immutable shared prefix. After
// Seal, Clone is O(1); the proof itself remains appendable — later steps
// start a fresh suffix. Chains deeper than maxLayerDepth are flattened so
// lookups never walk more than a constant number of segments.
func (p *Proof) Seal() {
	// Nothing new; see BeliefStore.Seal for why base is never too deep.
	if len(p.steps) == 0 {
		return
	}
	seg := &proofSeg{parent: p.base, steps: p.steps, start: p.baseLen + 1, depth: 1}
	if p.base != nil {
		seg.depth = p.base.depth + 1
	}
	p.baseLen += len(p.steps)
	if seg.depth > maxLayerDepth {
		seg = flattenProof(seg, p.baseLen)
	}
	p.base = seg
	p.steps = nil
}

// flattenProof collapses a segment chain of total length n into one
// segment.
func flattenProof(seg *proofSeg, n int) *proofSeg {
	steps := make([]Step, 0, n)
	for _, s := range seg.chain() {
		steps = append(steps, s.steps...)
	}
	return &proofSeg{steps: steps, start: 1, depth: 1}
}

// Clone returns an independent copy of the proof: appends to either copy
// never affect the other. The sealed prefix is shared, so cloning a sealed
// proof is O(1); only the suffix is copied.
func (p *Proof) Clone() *Proof {
	c := &Proof{owner: p.owner, base: p.base, baseLen: p.baseLen}
	if len(p.steps) > 0 {
		c.steps = make([]Step, len(p.steps))
		copy(c.steps, p.steps)
	}
	return c
}

// Grow reserves room for n more steps in the suffix, so that the next n
// appends and splices do not reallocate it: a caller that knows how long
// its derivation will be (the residual decider's warm arm) sizes it once.
func (p *Proof) Grow(n int) { p.steps = slices.Grow(p.steps, n) }

// Steps returns a copy of the proof lines, in ID order.
func (p *Proof) Steps() []Step {
	out := make([]Step, 0, p.baseLen+len(p.steps))
	for _, s := range p.base.chain() {
		out = append(out, s.steps...)
	}
	out = append(out, p.steps...)
	return out
}

// Len returns the number of steps.
func (p *Proof) Len() int { return p.baseLen + len(p.steps) }

// String renders the whole derivation, each conclusion implicitly wrapped
// in "owner believes" as in the paper's statement lists.
func (p *Proof) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Derivation at %s:\n", p.owner)
	for _, seg := range p.base.chain() {
		for _, s := range seg.steps {
			writeLine(&b, s)
		}
	}
	for _, s := range p.steps {
		writeLine(&b, s)
	}
	return b.String()
}

// writeLine renders s as one indented line of a derivation.
func writeLine(b *strings.Builder, s Step) {
	b.WriteString("  ")
	b.WriteString(s.String())
	b.WriteByte('\n')
}

// Derivation is the part of a proof one conclusion rests on: a subset of
// its steps, closed under premises, with their original IDs, in ID order.
// It holds copies of the steps it keeps and nothing else of the proof.
type Derivation struct {
	owner string
	steps []Step
}

// String renders the derivation as Proof.String renders the whole proof:
// the same header and lines, without the steps no kept step cites.
func (d Derivation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Derivation at %s:\n", d.owner)
	for _, s := range d.steps {
		writeLine(&b, s)
	}
	return b.String()
}

// Justification returns the derivation of what the suffix concluded: the
// suffix's steps and every step they cite, transitively. Each premise
// still resolves to a line of it, so it is a complete derivation of the
// suffix's conclusions, however long the sealed prefix it draws on. It
// reads only the steps it keeps: a cited step is looked up in its segment
// by ID (a chain of at most maxLayerDepth segments).
func (p *Proof) Justification() Derivation {
	keep := slices.Clone(p.steps)
	seen := make(map[int]bool, 2*len(keep))
	for _, s := range keep {
		seen[s.ID] = true
	}
	for i := 0; i < len(keep); i++ {
		for _, id := range keep[i].Premises {
			if !seen[id] {
				seen[id] = true
				keep = append(keep, p.step(id))
			}
		}
	}
	slices.SortFunc(keep, func(a, b Step) int { return a.ID - b.ID })
	return Derivation{owner: p.owner, steps: keep}
}

// step returns the step with the given ID, which must be one of the
// proof's.
func (p *Proof) step(id int) Step {
	if id > p.baseLen {
		return p.steps[id-p.baseLen-1]
	}
	seg := p.base
	for seg.start > id {
		seg = seg.parent
	}
	return seg.steps[id-seg.start]
}

// Segment is a self-contained run of recorded proof steps, cut from a
// proof by Record and replayable by Splice onto any proof sharing the
// same sealed prefix. It is how the residual compiler captures the
// invariant portion of a derivation once per snapshot: premises below
// the segment's first step refer into the shared base and are preserved
// verbatim, premises within the segment are renumbered on splice.
type Segment struct {
	start int // original 1-based ID of steps[0]
	steps []Step
}

// Len returns the number of recorded steps.
func (g Segment) Len() int { return len(g.steps) }

// Record cuts the steps with ID > from into a Segment. The cut may not
// reach into the sealed prefix: segments record steps appended by the
// caller, not the shared base they build on.
func (p *Proof) Record(from int) (Segment, error) {
	if from < p.baseLen || from > p.Len() {
		return Segment{}, fmt.Errorf("logic: Record from step %d of a proof with sealed prefix %d and %d steps", from, p.baseLen, p.Len())
	}
	steps := make([]Step, p.Len()-from)
	copy(steps, p.steps[from-p.baseLen:])
	return Segment{start: from + 1, steps: steps}, nil
}

// Splice replays a recorded segment onto the proof: each step is
// re-appended with a fresh ID, premises that referred to earlier steps
// of the same segment are remapped, and premises below the segment's
// start are kept verbatim — they reference the sealed prefix both
// proofs share. The proof must already contain every such external
// premise (it does whenever both proofs descend from the same sealed
// base). The returned map sends original step IDs to spliced ones.
//
// When the segment lands exactly at its original position — the proof's
// length equals start−1, the residual decider's warm arm (the residue
// was recorded from a clone of the same sealed base the request proof is
// cloned from) — every ID maps to itself: the steps are appended
// verbatim, sharing their premise slices with the immutable segment, and
// the returned map is nil. Its cold arm splices after the request's own
// certificate derivations, so there the segment lands late and is
// renumbered.
func (p *Proof) Splice(seg Segment) (map[int]int, error) {
	if seg.start-1 > p.Len() {
		return nil, fmt.Errorf("logic: splice of segment starting at step %d onto a proof with only %d steps", seg.start, p.Len())
	}
	if seg.start-1 == p.Len() {
		p.steps = append(p.steps, seg.steps...)
		return nil, nil
	}
	ids := make(map[int]int, len(seg.steps))
	for _, s := range seg.steps {
		ps := make([]int, len(s.Premises))
		for i, pr := range s.Premises {
			if pr >= seg.start {
				np, ok := ids[pr]
				if !ok {
					return nil, fmt.Errorf("logic: segment step %d cites premise %d before it is spliced", s.ID, pr)
				}
				ps[i] = np
			} else {
				ps[i] = pr
			}
		}
		ids[s.ID] = p.Append(s.Rule, ps, s.Conclusion, s.At, s.Note)
	}
	return ids, nil
}

// StringFrom renders only the steps with ID > after, without the
// derivation header: the complement of a prefix rendered (and cached)
// earlier with String. StringFrom(0) renders every step.
func (p *Proof) StringFrom(after int) string {
	var b strings.Builder
	line := func(s Step) {
		if s.ID > after {
			writeLine(&b, s)
		}
	}
	for _, seg := range p.base.chain() {
		if seg.start+len(seg.steps)-1 <= after {
			continue
		}
		for _, s := range seg.steps {
			line(s)
		}
	}
	for _, s := range p.steps {
		line(s)
	}
	return b.String()
}

// Check verifies the internal consistency of the proof: premise IDs must
// refer to strictly earlier steps and every step must have a conclusion.
func (p *Proof) Check() error {
	check := func(s Step) error {
		if s.Conclusion == nil {
			return fmt.Errorf("step %d: nil conclusion", s.ID)
		}
		for _, pr := range s.Premises {
			if pr <= 0 || pr >= s.ID {
				return fmt.Errorf("step %d: premise %d is not an earlier step", s.ID, pr)
			}
		}
		return nil
	}
	for _, seg := range p.base.chain() {
		for _, s := range seg.steps {
			if err := check(s); err != nil {
				return err
			}
		}
	}
	for _, s := range p.steps {
		if err := check(s); err != nil {
			return err
		}
	}
	return nil
}
