// Residual compilation: partial evaluation of the authorization
// derivation, once per (snapshot, group), on first use.
//
// Steps 1–3 of Section 4.3 derive "G says op O" from the certificates
// alone; the object enters only at Step 4's ACL lookup. The shape of the
// derivation is therefore fixed by the requesting group's certificates —
// the observation Halpern–van der Meyden exploit when reducing SPKI
// authorization to tuple-reduction over a fixed chain shape — and only
// the request-specific leaves vary. A residue is that shape for one
// group: the invariant proof steps (the believed relation closure Step
// 4's privilege inheritance will walk, the composed delegation chains
// targeting the group) recorded once as a logic.Segment, plus the
// ordered leaf checks Authorize must still discharge per request
// (identity validity and key revocation, membership validity and
// revocation, co-signature count, freshness window, the live ACL, the
// temporal condition).
//
// A residue is a pure function of the immutable snapshot and the group,
// so nothing is compiled at publish: the first warm request for a group
// compiles its residue into the snapshot's memo, which is discarded with
// the snapshot — a residue can never outlive the belief set it was
// compiled from. (The verified-certificate cache outlives the snapshot,
// snapshot.go; a residue does not ride along, because the relation
// closure and the composed chains it records are beliefs, and compiling
// one costs a few microseconds.) The memo is filled only for a group
// named by a certificate already verified in the key epoch's cache, so it
// is bounded by issued certificates, never by request input. The object
// store mutates outside snapshot publishes (writes, ACL changes, new
// objects) and no residue depends on it: the ACL lookup is a live Step-4
// leaf.

package authz

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
)

// residualEdge is one believed relation edge recorded into a residue —
// a plain group link (budget-preserving) or a bounded group-graph edge;
// the validity term is re-checked at request time.
type residualEdge struct {
	sub, sup logic.Group
	t        logic.TimeSpec
	// bounded marks a group-graph edge: crossing it costs one unit of
	// traversal budget and clamps the remainder to depth.
	bounded bool
	depth   int
}

// residue is the compiled checklist for one requesting group.
type residue struct {
	// seg is the recorded invariant portion of the derivation: the
	// relation-graph closure steps (group links and graph edges), the
	// absorbed delegation chains, and the compile summary, spliceable
	// onto any proof cloned from the same sealed base.
	seg logic.Segment
	// edges is the relation closure reachable from the group, for Step
	// 4's budget-bounded inheritance walk.
	edges []residualEdge
	// delegs maps a subject name to its believed root-anchored composed
	// delegations for the group, deepest remaining bound first (mirroring
	// BeliefStore.DelegationFor's preference). Interval freshness, the
	// op-in-perms check and per-link revocation stay request-time leaves.
	delegs map[string][]logic.Delegates
	// prefixLen and segTrace cache the rendering of the spliced segment,
	// so reading an approval's audit entry renders only its leaf steps
	// (the base proof's rendering is shared by the whole snapshot,
	// residueMemo.baseTrace).
	prefixLen int
	segTrace  string
}

// reachable returns group plus every group the relation walk reaches from
// it over the recorded edges whose validity covers now — what
// BeliefStore.EffectiveGroups returns at now, in the same order, because
// the edges were recorded in the order that walk tries them.
func (r *residue) reachable(group string, now clock.Time) []logic.Group {
	if len(r.edges) == 0 {
		return []logic.Group{logic.G(group)}
	}
	w := logic.NewRelationWalk(logic.G(group))
	for cur, ok := w.Next(); ok; cur, ok = w.Next() {
		for _, e := range r.edges {
			if e.sub == cur && e.t.Covers(now) {
				w.Cross(e.sup, e.bounded, e.depth)
			}
		}
	}
	return w.Reached()
}

// relEdge is a believed relation edge with the base-proof step that
// recorded it.
type relEdge struct {
	residualEdge
	entry logic.Entry
}

// relIndex is what residues are compiled from: the sealed engine's
// believed relation graph (plain group links plus bounded group-graph
// edges) and its composed delegation chains by target group. It is a
// function of the snapshot alone, built once on the snapshot's first
// compile.
type relIndex struct {
	base   *logic.Proof
	edges  []relEdge
	adj    map[logic.Group][]int // group → indices of the edges leaving it
	delegs map[string][]logic.Entry
}

func buildRelIndex(eng *logic.Engine) *relIndex {
	ix := &relIndex{
		base:   eng.Proof(),
		adj:    make(map[logic.Group][]int),
		delegs: make(map[string][]logic.Entry),
	}
	add := func(e residualEdge, entry logic.Entry) {
		ix.adj[e.sub] = append(ix.adj[e.sub], len(ix.edges))
		ix.edges = append(ix.edges, relEdge{e, entry})
	}
	for _, e := range eng.Store().GroupLinks() {
		l := e.F.(logic.GroupSpeaksFor)
		add(residualEdge{sub: l.Sub, sup: l.Sup, t: l.T}, e)
	}
	for _, e := range eng.Store().GraphEdges() {
		l := e.F.(logic.GroupGraphEdge)
		add(residualEdge{sub: l.Sub, sup: l.Sup, t: l.T, bounded: true, depth: l.Depth}, e)
	}
	for _, e := range eng.Store().Delegations() {
		g := e.F.(logic.Delegates).G.Name
		ix.delegs[g] = append(ix.delegs[g], e)
	}
	return ix
}

// reach returns every edge the relation walk crosses from g, in the order
// it first crosses them, with validity windows left to each request. An
// edge is recorded when it leaves a reachable group with budget to spare,
// so a residue never bakes in a hop the request-time walk could not take.
func (ix *relIndex) reach(g string) []relEdge {
	w := logic.NewRelationWalk(logic.G(g))
	used := make(map[int]bool)
	var out []relEdge
	for cur, ok := w.Next(); ok; cur, ok = w.Next() {
		for _, ei := range ix.adj[cur] {
			e := ix.edges[ei]
			if w.Cross(e.sup, e.bounded, e.depth) && !used[ei] {
				used[ei] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// compile partially evaluates the derivation for requesting group g
// against the snapshot's belief set: the invariant steps are recorded
// onto a clone of the base proof and cut into a spliceable segment.
func (ix *relIndex) compile(g string, now clock.Time) *residue {
	p := ix.base.Clone()
	from := p.Len()
	res := &residue{}
	var premises []int
	for _, e := range ix.reach(g) {
		premises = append(premises, p.Append(logic.RuleResidualLink, []int{e.entry.Step}, e.entry.F, now,
			"recorded for residue "+g+": "+e.sub.Name+" ⇒ "+e.sup.Name))
		res.edges = append(res.edges, e.residualEdge)
	}
	// Absorb the composed delegation chains targeting g: the chain-
	// composition derivation is snapshot-invariant, so only the
	// op/interval/per-link-revocation leaves remain per request. Subjects
	// in name order, each subject's chains deepest first (stable, so the
	// residual and full paths pick the same chain).
	if chains := ix.delegs[g]; len(chains) > 0 {
		chains = append([]logic.Entry(nil), chains...)
		sort.SliceStable(chains, func(i, j int) bool {
			a, b := chains[i].F.(logic.Delegates), chains[j].F.(logic.Delegates)
			if a.To.Name != b.To.Name {
				return a.To.Name < b.To.Name
			}
			return a.Depth > b.Depth
		})
		res.delegs = make(map[string][]logic.Delegates)
		for _, e := range chains {
			d := e.F.(logic.Delegates)
			premises = append(premises, p.Append(logic.RuleResidualLink, []int{e.Step}, d, now,
				"recorded for residue "+g+": delegation chain to "+d.To.Name))
			res.delegs[d.To.Name] = append(res.delegs[d.To.Name], d)
		}
	}
	p.Append(logic.RuleResidualCompile, premises, logic.Prop{Name: "residual(" + g + ")"}, now,
		"invariant steps compiled on the group's first use in this snapshot; request-variable leaf checks follow per request")
	seg, err := p.Record(from)
	if err != nil {
		return nil // unreachable: from is the clone's own length
	}
	res.seg, res.prefixLen, res.segTrace = seg, p.Len(), p.StringFrom(from)
	return res
}

// residueMemo holds the residues compiled so far against one snapshot,
// keyed by requesting group. It is bound to exactly one state and
// discarded with it.
type residueMemo struct {
	index func() *relIndex // built on first compile
	// baseTrace renders the snapshot's base proof, once, when the first
	// residual approval's audit entry is read; the entries keep it, not
	// the memo.
	baseTrace func() string
	mu        sync.RWMutex
	m         map[string]*residue
}

func newResidueMemo(eng *logic.Engine) *residueMemo {
	return &residueMemo{
		index:     sync.OnceValue(func() *relIndex { return buildRelIndex(eng) }),
		baseTrace: sync.OnceValue(eng.Proof().String),
		m:         make(map[string]*residue),
	}
}

// residueFor returns the snapshot's residue for group, compiling it on
// first use. Callers must have found a verified certificate naming group
// in st.cache first: that is what bounds the memo by issued certificates.
// Racing first requests compile once — the loser waits on the lock.
func (s *Server) residueFor(st *state, group string) *residue {
	rm := st.residues
	rm.mu.RLock()
	res := rm.m[group]
	rm.mu.RUnlock()
	if res != nil {
		return res
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if res = rm.m[group]; res != nil {
		return res
	}
	if res = rm.index().compile(group, s.clk.Now()); res != nil {
		rm.m[group] = res
		s.reg.Counter(MetricResidualCompiles).Inc()
	}
	return res
}

// RecompileResiduals discards the current snapshot's memoized residues;
// each is recompiled on its group's next warm request. Nothing in this
// module needs it — residues do not depend on the object store, and
// belief mutations publish a snapshot with an empty memo — and it has no
// caller outside tests: it survives only because the frozen benchmark
// module times it, and goes with that probe.
func (s *Server) RecompileResiduals() {
	rm := s.state.Load().residues
	rm.mu.Lock()
	defer rm.mu.Unlock()
	clear(rm.m)
}

// SetResidualsEnabled toggles the residual decider in Authorize (enabled
// by default). Disabling forces every request down the 4-step replay;
// memoized residues are kept, so re-enabling needs no recompilation. The
// differential tests use it to decide one request both ways, and the
// frozen benchmark module to time the replay.
func (s *Server) SetResidualsEnabled(on bool) { s.noResidual.Store(!on) }

// tryResidual attempts the residual decider: find the cached certificate
// verifications, look up (or compile) the residue for the requesting
// group, and splice its recorded segment onto the base proof. ok=false
// means the request cannot be decided residually — a certificate not yet
// in the cache, a membership certificate from a foreign issuer, or a
// delegated subject with no chain absorbed into the residue — and nothing
// was traced or counted, nor left in sc for the replay to read but the
// fingerprints: the caller falls back to the replay. Cached verifications
// may predate this snapshot (the cache belongs to the key epoch);
// everything a mutation can change is a leaf decideResidual checks
// against st, and the residue is st's own.
func (s *Server) tryResidual(ctx context.Context, st *state, sc *reqScratch, req *AccessRequest) (Decision, error, bool) {
	if len(req.Requests) == 0 {
		return Decision{}, nil, false
	}
	now := s.clk.Now()
	// The membership certificate names the requesting group; its
	// verification must be cached. The fingerprint covers the certificate
	// body, so a hit means a verified certificate names exactly this group.
	mc := membershipCertOf(req)
	if mc.issuer != st.anchors.AAName {
		return Decision{}, nil, false // the replay renders the exact denial
	}
	memHit, ok := st.cache.get(sc.memFP)
	if !ok {
		return Decision{}, nil, false
	}
	res := s.residueFor(st, mc.group)
	if res == nil {
		return Decision{}, nil, false
	}
	if req.Delegated {
		_, ok = memHit.formula.(logic.Delegates)
		ok = ok && len(res.delegs[req.Delegation.Cert.Subject.Name]) > 0
	} else {
		_, ok = memHit.formula.(logic.MemberOf)
	}
	if !ok {
		return Decision{}, nil, false
	}
	idHits := grow(sc.idHits, len(req.Identities))
	sc.idHits = idHits
	for i := range req.Identities {
		e, ok := st.cache.get(sc.idFPs[i])
		if _, isKey := e.formula.(logic.KeySpeaksFor); !ok || !isKey {
			return Decision{}, nil, false
		}
		idHits[i] = e
	}
	// Splice the recorded segment before committing, so a (never
	// expected) mismatch still falls back cleanly instead of tracing.
	pr := st.eng.Proof().Clone()
	if _, err := pr.Splice(res.seg); err != nil {
		return Decision{}, nil, false
	}

	// Committed: from here every outcome is decided residually, with the
	// traces, metrics and denial reasons the replay produces.
	s.hot.residualHits.Inc()
	s.hot.cacheHitAttribute.Inc()
	s.hot.cacheHitIdentity.Add(int64(len(req.Identities)))
	d := decision{s: s, ctx: ctx, r: req.Requests[0], tr: s.beginTrace(), now: now, proof: pr}
	dec, err := s.decideResidual(&d, st, sc, req, mc, memHit, res)
	return dec, err, true
}

// decideResidual decides a request tryResidual committed to. Its own are
// the leaf checks of Steps 1–3 against the cached verifications and the
// residue, each appending one leaf step to d.proof; freshness, Step 3's
// signer checks, the statement-25 conclusion and everything after it are
// the code the replay runs.
func (s *Server) decideResidual(d *decision, st *state, sc *reqScratch, req *AccessRequest, mc memCert, memHit cachedCert, res *residue) (Decision, error) {
	now, pr, group := d.now, d.proof, mc.group
	d.tr.begin(StepFreshness)
	if err := d.ctx.Err(); err != nil {
		return d.abort(err)
	}
	if reason := freshnessDenial(st.anchors.FreshnessWindow, req.Requests, now); reason != "" {
		return d.deny("", reason)
	}

	store := st.eng.Store()

	// ---- Step 1 leaves: cached identity verifications, re-checked at the
	// current time against this snapshot — validity of every certificate
	// first (the replay checks it with the signatures, before any
	// derivation), then issuer and key revocation in certificate order. ----
	d.tr.begin(StepCerts)
	for i, e := range sc.idHits {
		if !e.validity.Contains(now) {
			return d.deny("", fmt.Sprintf("identity certificate invalid: %v", s.expiredHit(st, sc.idFPs[i], e, now)))
		}
	}
	keys := grow(sc.keys, len(req.Identities))
	sc.keys = keys
	for i := range req.Identities {
		idc, e := &req.Identities[i], sc.idHits[i]
		ks := e.formula.(logic.KeySpeaksFor)
		if reason := identityLeafDenial(store, idc, ks, now); reason != "" {
			return d.deny("", reason)
		}
		pr.Append(logic.RuleResidualLeaf, nil, ks, now, e.note)
		keys[i] = signerKey{upk: e.subjectKey, ks: ks}
	}

	// ---- Step 2 leaf: cached membership, re-checked for validity, the
	// AA's key and revocation. On the delegated path the leaves are the
	// absorbed chain's interval, the op-in-perms check, and per-link
	// revocation (subject plus every delegator on the path). ----
	d.tr.begin(StepThreshold)
	if err := d.ctx.Err(); err != nil {
		return d.abort(err)
	}
	if !memHit.validity.Contains(now) {
		return d.deny(group, fmt.Sprintf("%s certificate invalid: %v", certKind(req), s.expiredHit(st, sc.memFP, memHit, now)))
	}
	var (
		mem      logic.MemberOf
		memStep  int
		validity = mc.validity
	)
	if req.Delegated {
		subject := req.Delegation.Cert.Subject.Name
		var chain *logic.Delegates
		revokedSeen := false
		dcands := res.delegs[subject]
		for i := range dcands {
			c := &dcands[i]
			if !c.T.Covers(now) {
				continue
			}
			linkRevoked := false
			for _, name := range delegation.Links(*c) {
				if store.Revoked(logic.P(name), logic.G(group), now) {
					linkRevoked = true
					break
				}
			}
			if linkRevoked {
				revokedSeen = true
				continue
			}
			chain = c
			break // deepest first: the chain DelegationFor would pick
		}
		if chain == nil {
			if revokedSeen {
				s.reg.Counter(delegation.MetricLinkRevocationDenials).Inc()
				return d.deny(group, fmt.Sprintf("delegation derivation failed: a chain link for %s in %s is revoked as of %s",
					subject, group, now))
			}
			return d.deny(group, fmt.Sprintf("delegation derivation failed: no believed chain for %s in %s valid at %s",
				subject, group, now))
		}
		m, err := logic.DelegationMember(*chain, string(req.Requests[0].Op), now)
		if err != nil {
			return d.deny(group, "delegation derivation failed: "+err.Error())
		}
		mem = m
		validity = clock.NewInterval(chain.T.Time(), chain.T.End())
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now,
			"membership of "+subject+" in "+group+" derived from the absorbed delegation chain ["+chain.Path+"]")
	} else {
		mem = memHit.formula.(logic.MemberOf)
		if reason := membershipLeafDenial(store, mc.signerKey, mem, now); reason != "" {
			return d.deny(group, reason)
		}
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now, memHit.note)
	}

	// ---- Step 3: the shared signer checks, then one signed-utterance
	// leaf per co-signer and the statement-25 conclusion. ----
	d.tr.begin(StepCosign)
	if err := sc.verifySigners(d.ctx, req); err != nil {
		return d.fail(group, err)
	}
	utterances := grow(sc.utter, len(req.Requests))
	sc.utter = utterances
	premises := append(sc.premises[:0], memStep)
	for i := range req.Requests {
		r := &req.Requests[i]
		key, _ := sc.signer(req, r.User)
		// The signed form of the utterance, exactly as VerifySignedRequest
		// records it — A38 consumes it to check each co-signer's bound key.
		utterances[i] = logic.Says{Who: logic.P(r.User), T: logic.At(r.At), X: signedUtterance(r, key.ks.K)}
		premises = append(premises, pr.Append(logic.RuleResidualLeaf, nil, utterances[i], now,
			"signed utterance of "+r.User+" verified against the cached key binding"))
	}
	sc.premises = premises
	gs, rule, err := logic.DeriveGroupSays(mem, utterances, now, func(who string) (logic.KeySpeaksFor, bool) {
		key, ok := sc.signer(req, who)
		return key.ks, ok
	})
	if err != nil {
		return d.deny(group, "threshold not met: "+err.Error())
	}
	pr.Append(rule, premises, gs, now, "statement 25: G says X")

	// ---- Step 4 against the residue's recorded closure. ----
	var derivation fmt.Stringer
	if d.tr.sink {
		derivation = &residualDerivation{base: st.residues.baseTrace, seg: res.segTrace, proof: pr, prefixLen: res.prefixLen}
	}
	return d.approve(gs, res.reachable(group, now), validity, derivation)
}

// residualDerivation is what a residual approval's audit entry keeps to
// render its proof on read: the snapshot's shared base rendering and the
// residue's recorded segment, spliced with the request's own leaf steps
// rendered fresh — the rendering analogue of the proof splice itself. It
// holds no more of the snapshot than the proof already does.
type residualDerivation struct {
	base      func() string
	seg       string
	proof     *logic.Proof
	prefixLen int
}

func (d *residualDerivation) String() string {
	return d.base() + d.seg + d.proof.StringFrom(d.prefixLen)
}
