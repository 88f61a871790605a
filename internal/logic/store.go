package logic

import "jointadmin/internal/clock"

// Entry is one belief held by a principal: a formula, the time it was
// established on the believer's clock, and the proof step that produced it.
type Entry struct {
	F    Formula
	At   clock.Time
	Step int
}

// Revocation records a negative belief ¬(W ⇒ G) effective from a time: the
// "believe until revoked" condition of Section 4.3. After EffectiveAt, the
// membership can no longer be (re-)derived.
type Revocation struct {
	Who         Subject
	G           Group
	EffectiveAt clock.Time
	Step        int
}

// maxLayerDepth bounds the sealed-layer chain. Every Seal pushes the
// current overlay as one more immutable layer; once the chain is this
// deep, the next Seal flattens everything into a single layer so reads
// never walk more than maxLayerDepth segments. Belief mutations
// (revocations, group links) are rare next to request evaluations, so the
// amortized flatten cost is negligible.
const maxLayerDepth = 8

// storeLayer is one immutable segment of a sealed belief base. Layers are
// never modified after publication, so they are shared — without copying
// or locking — by every store forked from the same sealed base.
type storeLayer struct {
	parent      *storeLayer
	entries     []Entry
	index       map[string]int // canonical key -> position in entries
	revoked     []Revocation
	revokedKeys map[KeyID]clock.Time // key id -> earliest effective time
	depth       int                  // chain length including this layer
	size        int                  // cumulative entry count including parents
}

// chain returns the layers from oldest to newest (insertion order).
func (l *storeLayer) chain() []*storeLayer {
	if l == nil {
		return nil
	}
	out := make([]*storeLayer, l.depth)
	for i := l.depth - 1; i >= 0; i-- {
		out[i] = l
		l = l.parent
	}
	return out
}

// BeliefStore is the set of formulas a principal currently believes,
// indexed by canonical form. It is layered: an immutable, structurally
// shared base (built by Seal) plus a small mutable overlay holding
// everything added since. Reads consult the overlay first and fall
// through to the base; writes go only to the overlay. Cloning a sealed
// store (empty overlay) is O(1) regardless of base size — the layered
// reading of NAL-style monotone base theories: per-query reasoning
// extends the principal's beliefs but never mutates them.
//
// The store holds no lock; ownership replaces it. A sealed store that has
// been shared is read-only and may be read from any number of goroutines.
// An unsealed store, or a clone, has exactly one owner, which alone reads
// and writes it. Base layers are immutable and shared by every clone.
type BeliefStore struct {
	base *storeLayer // immutable; nil for a fresh store

	// Overlay state. Maps are allocated lazily so a sealed fork costs one
	// struct allocation and nothing else.
	entries     []Entry
	index       map[string]int
	revoked     []Revocation
	revokedKeys map[KeyID]clock.Time
}

// NewBeliefStore returns an empty store.
func NewBeliefStore() *BeliefStore {
	return &BeliefStore{}
}

// Seal freezes the store's current contents into the immutable base:
// the overlay is pushed as a new shared layer (flattening the chain when
// it grows past maxLayerDepth) and cleared. After Seal, Clone is O(1).
// Until the store is shared its owner may keep writing: later writes
// start a fresh overlay and make the next Seal or Clone proportionally
// more expensive. Once shared, it is only read.
func (b *BeliefStore) Seal() {
	// Nothing new, and no over-deep base to flatten: base is set only
	// below, to a layer flattened once deeper than maxLayerDepth, and by
	// Clone, to a copy of such a layer. Proof.Seal relies on the same.
	if len(b.entries) == 0 && len(b.revoked) == 0 && len(b.revokedKeys) == 0 {
		return
	}
	layer := &storeLayer{
		parent:      b.base,
		entries:     b.entries,
		index:       b.index,
		revoked:     b.revoked,
		revokedKeys: b.revokedKeys,
		depth:       1,
		size:        len(b.entries),
	}
	if b.base != nil {
		layer.depth = b.base.depth + 1
		layer.size += b.base.size
	}
	if layer.depth > maxLayerDepth {
		layer = flatten(layer)
	}
	b.base = layer
	b.entries, b.index, b.revoked, b.revokedKeys = nil, nil, nil, nil
}

// flatten collapses a layer chain into a single layer. Add keeps a key
// in at most one layer, so each layer's index carries over shifted by the
// entries before it; no formula is rendered again.
func flatten(l *storeLayer) *storeLayer {
	out := &storeLayer{
		entries:     make([]Entry, 0, l.size),
		index:       make(map[string]int, l.size),
		revokedKeys: make(map[KeyID]clock.Time),
		depth:       1,
		size:        l.size,
	}
	for _, seg := range l.chain() {
		for k, pos := range seg.index {
			out.index[k] = len(out.entries) + pos
		}
		out.entries = append(out.entries, seg.entries...)
		out.revoked = append(out.revoked, seg.revoked...)
		for k, t := range seg.revokedKeys {
			if old, ok := out.revokedKeys[k]; !ok || t < old {
				out.revokedKeys[k] = t
			}
		}
	}
	return out
}

// RevokeKey records the negative belief ¬(k ⇒ P) effective at t: identity
// revocation (Stubblebine–Wright). KeyFor no longer returns the key at or
// after t.
func (b *BeliefStore) RevokeKey(k KeyID, t clock.Time) {
	if b.revokedKeys == nil {
		b.revokedKeys = make(map[KeyID]clock.Time)
	}
	if old, ok := b.revokedKeys[k]; !ok || t < old {
		b.revokedKeys[k] = t
	}
}

// KeyRevoked reports whether key k is revoked as of time t.
func (b *BeliefStore) KeyRevoked(k KeyID, t clock.Time) bool {
	if at, ok := b.revokedKeys[k]; ok && t >= at {
		return true
	}
	for l := b.base; l != nil; l = l.parent {
		if at, ok := l.revokedKeys[k]; ok && t >= at {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the store: adds and revocations on
// either copy never affect the other. The immutable base is shared, so
// cloning a sealed store is O(1); only the overlay is copied.
func (b *BeliefStore) Clone() *BeliefStore {
	c := &BeliefStore{base: b.base}
	if len(b.entries) > 0 {
		c.entries = make([]Entry, len(b.entries))
		copy(c.entries, b.entries)
		c.index = make(map[string]int, len(b.index))
		for k, v := range b.index {
			c.index[k] = v
		}
	}
	if len(b.revoked) > 0 {
		c.revoked = make([]Revocation, len(b.revoked))
		copy(c.revoked, b.revoked)
	}
	if len(b.revokedKeys) > 0 {
		c.revokedKeys = make(map[KeyID]clock.Time, len(b.revokedKeys))
		for k, v := range b.revokedKeys {
			c.revokedKeys[k] = v
		}
	}
	return c
}

// lookup finds the entry for a canonical key in the overlay or any
// base layer.
func (b *BeliefStore) lookup(key string) (Entry, bool) {
	if pos, ok := b.index[key]; ok {
		return b.entries[pos], true
	}
	for l := b.base; l != nil; l = l.parent {
		if pos, ok := l.index[key]; ok {
			return l.entries[pos], true
		}
	}
	return Entry{}, false
}

// Add records the belief f established at time at by proof step step. If an
// identical formula is already held, the earlier entry is kept and its
// position returned.
func (b *BeliefStore) Add(f Formula, at clock.Time, step int) Entry {
	key := f.String()
	if e, ok := b.lookup(key); ok {
		return e
	}
	e := Entry{F: f, At: at, Step: step}
	if b.index == nil {
		b.index = make(map[string]int)
	}
	b.index[key] = len(b.entries)
	b.entries = append(b.entries, e)
	return e
}

// Holds reports whether the exact formula is believed, and returns its
// entry.
func (b *BeliefStore) Holds(f Formula) (Entry, bool) {
	return b.lookup(f.String())
}

// forEach visits every entry in insertion order (base layers oldest
// first, then the overlay) until fn returns false.
func (b *BeliefStore) forEach(fn func(Entry) bool) {
	for _, l := range b.base.chain() {
		for _, e := range l.entries {
			if !fn(e) {
				return
			}
		}
	}
	for _, e := range b.entries {
		if !fn(e) {
			return
		}
	}
}

// All returns a copy of every belief entry, in insertion order.
func (b *BeliefStore) All() []Entry {
	n := len(b.entries)
	if b.base != nil {
		n += b.base.size
	}
	out := make([]Entry, 0, n)
	b.forEach(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// KeyFor returns a believed KeySpeaksFor formula whose subject's name
// matches who and whose validity covers t, if one exists. Used by Step 1 of
// the authorization protocol to locate statements like statement 16:
// "K_User_D1 ⇒ [tb,te],CA1 User_D1".
func (b *BeliefStore) KeyFor(who string, t clock.Time) (KeySpeaksFor, bool) {
	var (
		out   KeySpeaksFor
		found bool
	)
	b.forEach(func(e Entry) bool {
		ks, ok := e.F.(KeySpeaksFor)
		if !ok {
			return true
		}
		if !ks.T.Covers(t) {
			return true
		}
		if b.KeyRevoked(ks.K, t) {
			return true
		}
		switch s := ks.Who.(type) {
		case Principal:
			if s.Name == who {
				out, found = ks, true
				return false
			}
		case CompoundPrincipal:
			if s.String() == who {
				out, found = ks, true
				return false
			}
		}
		return true
	})
	return out, found
}

// GroupLinks returns every believed GroupSpeaksFor entry, with its
// recording step and validity term intact and regardless of whether the
// link is in force at any particular time. The residual compiler records
// the link steps once per snapshot and re-checks each link's validity
// term at request time.
func (b *BeliefStore) GroupLinks() []Entry {
	var out []Entry
	b.forEach(func(e Entry) bool {
		if _, ok := e.F.(GroupSpeaksFor); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// unboundedBudget is the traversal budget of the start group: effectively
// infinite, so plain GroupSpeaksFor closures behave exactly as before the
// graph extension.
const unboundedBudget = 1 << 30

// RelationWalk is the budget-relaxation walk over the relation graph:
// group links (GroupSpeaksFor) preserve the traversal budget, and crossing
// a bounded group-graph edge (GroupGraphEdge) costs one unit of budget and
// clamps the remainder to the edge's own depth bound — SPKI's delegation
// bit lifted to the relation graph — so the walk is depth-bounded and
// terminates on cyclic graphs: a group is re-visited only when a new path
// strictly improves its remaining budget.
//
// The caller supplies the edges: it takes groups from Next and offers
// Cross every edge leaving the group, in the order the walk should try
// them. BeliefStore.EffectiveGroups offers the store's edges in force at
// a time; the residual compiler in internal/authz offers a snapshot's
// edges regardless of time, and a residue offers the ones it recorded.
type RelationWalk struct {
	best    map[Group]int
	queue   []Group
	reached []Group
	budget  int // of the group Next returned last
}

// NewRelationWalk starts a walk at start with an unbounded budget.
func NewRelationWalk(start Group) RelationWalk {
	return RelationWalk{
		best:    map[Group]int{start: unboundedBudget},
		queue:   []Group{start},
		reached: []Group{start},
	}
}

// Next returns the next group whose leaving edges the caller must offer to
// Cross, and false once the walk is done.
func (w *RelationWalk) Next() (Group, bool) {
	if len(w.queue) == 0 {
		return Group{}, false
	}
	cur := w.queue[0]
	w.queue = w.queue[1:]
	w.budget = w.best[cur]
	return cur, true
}

// Cross offers an edge to sup leaving the group Next returned last — a
// group link, or a graph edge with the given depth bound when bounded —
// and reports whether the budget in hand lets the walk cross it.
func (w *RelationWalk) Cross(sup Group, bounded bool, depth int) bool {
	nb := w.budget
	if bounded {
		if nb < 1 {
			return false
		}
		nb = min(nb-1, depth)
	}
	prev, seen := w.best[sup]
	if !seen {
		w.reached = append(w.reached, sup)
	}
	if !seen || nb > prev {
		w.best[sup] = nb
		w.queue = append(w.queue, sup)
	}
	return true
}

// Reached returns the start group and every group crossed into so far, in
// the order first reached.
func (w *RelationWalk) Reached() []Group { return w.reached }

// EffectiveGroups returns the relation closure of g at time t: g itself
// and every group the relation walk reaches over the links and graph
// edges in force at t — at each group its links first, then its graph
// edges, each in belief order.
func (b *BeliefStore) EffectiveGroups(g Group, t clock.Time) []Group {
	w := NewRelationWalk(g)
	for cur, ok := w.Next(); ok; cur, ok = w.Next() {
		b.crossFrom(&w, cur, t)
	}
	return w.Reached()
}

// crossFrom offers w every relation edge leaving sub that is in force at t.
func (b *BeliefStore) crossFrom(w *RelationWalk, sub Group, t clock.Time) {
	b.forEach(func(e Entry) bool {
		if l, ok := e.F.(GroupSpeaksFor); ok && l.Sub == sub && l.T.Covers(t) {
			w.Cross(l.Sup, false, 0)
		}
		return true
	})
	b.forEach(func(e Entry) bool {
		if l, ok := e.F.(GroupGraphEdge); ok && l.Sub == sub && l.T.Covers(t) {
			w.Cross(l.Sup, true, l.Depth)
		}
		return true
	})
}

// GraphEdges returns every believed GroupGraphEdge entry, with recording
// step and validity term intact (the residual compiler re-checks validity
// at request time, like GroupLinks).
func (b *BeliefStore) GraphEdges() []Entry {
	var out []Entry
	b.forEach(func(e Entry) bool {
		if _, ok := e.F.(GroupGraphEdge); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Delegations returns every believed composed Delegates entry.
func (b *BeliefStore) Delegations() []Entry {
	var out []Entry
	b.forEach(func(e Entry) bool {
		if _, ok := e.F.(Delegates); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// DelegationsFor returns every believed composed delegation ending at the
// named subject for group g that is valid at t with every chain link
// unrevoked (per-link revocation: revoking any delegator on the path kills
// the downstream grant).
func (b *BeliefStore) DelegationsFor(name string, g Group, t clock.Time) []Entry {
	var out []Entry
	b.forEach(func(e Entry) bool {
		d, ok := e.F.(Delegates)
		if !ok || d.G != g || d.To.Name != name {
			return true
		}
		if !d.T.Covers(t) || b.delegationRevoked(d, t) {
			return true
		}
		out = append(out, e)
		return true
	})
	return out
}

// DelegationFor returns one believed composed delegation for (name, g)
// valid at t with every link unrevoked, preferring the chain with the
// deepest remaining bound (so chain extension never fails spuriously when
// a more capable chain exists). The step of the entry is returned for
// proof citation.
func (b *BeliefStore) DelegationFor(name string, g Group, t clock.Time) (Delegates, int, bool) {
	var (
		out   Delegates
		step  int
		found bool
	)
	for _, e := range b.DelegationsFor(name, g, t) {
		d := e.F.(Delegates)
		if !found || d.Depth > out.Depth {
			out, step, found = d, e.Step, true
		}
	}
	return out, step, found
}

// delegationRevoked reports whether any principal on the chain —
// the subject or any delegator on the path — is revoked in d.G as of t.
func (b *BeliefStore) delegationRevoked(d Delegates, t clock.Time) bool {
	if b.Revoked(d.To, d.G, t) {
		return true
	}
	for _, name := range PathNames(d.Path) {
		if b.Revoked(P(name), d.G, t) {
			return true
		}
	}
	return false
}

// KeyJurisdictionFor returns the key-jurisdiction schema held for the named
// CA, if any.
func (b *BeliefStore) KeyJurisdictionFor(ca string) (KeyJurisdiction, bool) {
	var (
		out   KeyJurisdiction
		found bool
	)
	b.forEach(func(e Entry) bool {
		if kj, ok := e.F.(KeyJurisdiction); ok && kj.CA.Name == ca {
			out, found = kj, true
			return false
		}
		return true
	})
	return out, found
}

// MembershipJurisdictionFor returns the membership-jurisdiction schema held
// for the named authority, if any.
func (b *BeliefStore) MembershipJurisdictionFor(auth string) (MembershipJurisdiction, bool) {
	var (
		out   MembershipJurisdiction
		found bool
	)
	b.forEach(func(e Entry) bool {
		if mj, ok := e.F.(MembershipJurisdiction); ok && mj.AuthorityName == auth {
			out, found = mj, true
			return false
		}
		return true
	})
	return out, found
}

// SaysTimeJurisdictionFor returns the says-time-jurisdiction schema for the
// named authority, if any.
func (b *BeliefStore) SaysTimeJurisdictionFor(auth string) (SaysTimeJurisdiction, bool) {
	var (
		out   SaysTimeJurisdiction
		found bool
	)
	b.forEach(func(e Entry) bool {
		if sj, ok := e.F.(SaysTimeJurisdiction); ok && sj.Authority.String() == auth {
			out, found = sj, true
			return false
		}
		return true
	})
	return out, found
}

// Revoke records the negative belief ¬(who ⇒ g) effective at t (with upper
// bound infinity, per the paper's footnote 2).
func (b *BeliefStore) Revoke(who Subject, g Group, t clock.Time, step int) {
	b.revoked = append(b.revoked, Revocation{Who: who, G: g, EffectiveAt: t, Step: step})
}

// Revoked reports whether membership of who in g is revoked as of time t.
// Threshold and key decorations on compound principals are ignored when
// matching: revoking CP(2,3) ⇒ G also blocks the plain CP.
func (b *BeliefStore) Revoked(who Subject, g Group, t clock.Time) bool {
	match := func(rs []Revocation) bool {
		for _, r := range rs {
			if r.G != g || t < r.EffectiveAt {
				continue
			}
			if subjectsAlias(r.Who, who) {
				return true
			}
		}
		return false
	}
	if match(b.revoked) {
		return true
	}
	for l := b.base; l != nil; l = l.parent {
		if match(l.revoked) {
			return true
		}
	}
	return false
}

// Revocations returns a copy of all recorded revocations, oldest first.
func (b *BeliefStore) Revocations() []Revocation {
	var out []Revocation
	for _, l := range b.base.chain() {
		out = append(out, l.revoked...)
	}
	out = append(out, b.revoked...)
	return out
}

// subjectsAlias reports whether two subjects denote the same principal or
// compound-principal member set, ignoring threshold and key decorations.
func subjectsAlias(a, b Subject) bool {
	switch av := a.(type) {
	case Principal:
		bv, ok := b.(Principal)
		return ok && av.Name == bv.Name
	case CompoundPrincipal:
		bv, ok := b.(CompoundPrincipal)
		if !ok {
			return false
		}
		am, bm := av.Members(), bv.Members()
		if len(am) != len(bm) {
			return false
		}
		for i := range am {
			if am[i].Name != bm[i].Name {
				return false
			}
		}
		return true
	default:
		return SubjectEqual(a, b)
	}
}
