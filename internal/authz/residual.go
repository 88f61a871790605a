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
// so nothing is compiled at publish: the first request for a group
// compiles its residue into the snapshot's memo, which is discarded with
// the snapshot — a residue can never outlive the belief set it was
// compiled from. (The verified-certificate cache outlives the snapshot,
// snapshot.go; a residue does not ride along, because the relation
// closure and the composed chains it records are beliefs, and compiling
// one costs a few microseconds.) The memo is filled only for a group
// named by a membership certificate verified in the key epoch — found in
// its cache, or verified by the request itself before the lookup — so it
// is bounded by issued certificates, never by request input. The object
// store mutates outside snapshot publishes (writes, ACL changes, new
// objects) and no residue depends on it: the ACL lookup is a live Step-4
// leaf.
//
// The residual decider decides every request Authorize serves, in two
// arms that differ only in Steps 1–2 (decideResidual, decideCold) and
// share the rest (concludeResidual).

package authz

import (
	"fmt"
	"slices"
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
	// so reading a warm approval's audit entry renders only its leaf steps
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
// first use; its one caller, spliceResidue, states what bounds the memo.
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
// each is recompiled on its group's next request. Nothing in this module
// needs it — residues do not depend on the object store, and belief
// mutations publish a snapshot with an empty memo — and it has no caller
// outside tests: it survives only because the frozen benchmark module
// times it, and goes with that probe.
func (s *Server) RecompileResiduals() {
	rm := s.state.Load().residues
	rm.mu.Lock()
	defer rm.mu.Unlock()
	clear(rm.m)
}

// SetResidualsEnabled selects the decider Authorize runs: the residual
// decider (the default, and the only one any server serves) or, disabled,
// the 4-step replay, its oracle. Memoized residues are kept, so
// re-enabling needs no recompilation. The differential tests use it to
// decide one request both ways, the frozen benchmark module to time the
// replay, and cmd/logicproof to print the paper's full derivation.
func (s *Server) SetResidualsEnabled(on bool) { s.noResidual.Store(!on) }

// spliceResidue splices the snapshot's residue for group onto pr, having
// reserved room in pr for the segment and the tail steps the caller
// appends after it. The caller must have verified a certificate naming
// group first — found it in st.cache or verified it itself — which is what
// bounds the memo by verified certificates. Neither failure can happen
// (the residue is recorded from the base pr descends from); each denies,
// none switches decider.
func (s *Server) spliceResidue(st *state, group string, pr *logic.Proof, tail int) (*residue, error) {
	res := s.residueFor(st, group)
	if res == nil {
		return nil, fmt.Errorf("residual compile for %s failed", group)
	}
	pr.Grow(res.seg.Len() + tail)
	if _, err := pr.Splice(res.seg); err != nil {
		return nil, err
	}
	return res, nil
}

// decideResidual decides a request on the residual decider, once
// authorizeAt has checked the context and that the request has a
// component. The warm arm — the
// membership certificate and every identity certificate cached — splices
// the residue onto a clone of the snapshot's proof and checks the leaves
// of Steps 1–2 against the cached verifications and the residue, each
// appending one leaf step to d.proof; anything else takes decideCold.
// Cached verifications may predate this snapshot (the cache belongs to the
// key epoch); everything a mutation can change is a leaf checked against
// st, and the residue is st's own.
func (s *Server) decideResidual(d *decision, st *state, sc *reqScratch, req *AccessRequest) (Decision, error) {
	// The fingerprint covers the certificate body, so a membership hit
	// means a certificate the AA verifiably issued names exactly this
	// group.
	memHit, warm := st.cache.get(sc.memFP)
	idHits := grow(sc.idHits, len(req.Identities))
	sc.idHits = idHits
	for i := 0; warm && i < len(idHits); i++ {
		idHits[i], warm = st.cache.get(sc.idFPs[i])
	}
	if !warm {
		return s.decideCold(d, st, sc, req)
	}
	mc := membershipCertOf(req)
	now, group := d.now, mc.group
	pr := st.eng.Proof().Clone()
	d.proof = pr
	// The tail: a leaf per identity, the membership leaf, a leaf per
	// co-signer and the statement-25 conclusion.
	res, err := s.spliceResidue(st, group, pr, len(req.Identities)+1+conclusionSteps(req))
	if err != nil {
		return d.deny(group, err.Error())
	}
	if req.Delegated {
		s.hot.cacheHitDelegation.Inc()
	} else {
		s.hot.cacheHitAttribute.Inc()
	}
	s.hot.cacheHitIdentity.Add(int64(len(req.Identities)))
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
		ks, ok := e.formula.(logic.KeySpeaksFor)
		if !ok {
			return d.deny("", "identity derivation failed: cached formula is not a key binding")
		}
		if reason := identityLeafDenial(store, idc, e.formula, now); reason != "" {
			return d.deny("", reason)
		}
		pr.Append(logic.RuleResidualLeaf, nil, e.formula, now, e.note) // ks, as cached
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
	memR := membershipResult{group: group, certValidity: mc.validity}
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
			if slices.ContainsFunc(delegation.Links(*c), func(name string) bool {
				return store.Revoked(logic.P(name), logic.G(group), now)
			}) {
				revokedSeen = true
				continue
			}
			chain = c
			break // deepest first: the chain DelegationFor would pick
		}
		if chain == nil {
			return d.deny(group, s.chainDenial(subject, group, revokedSeen, now))
		}
		m, err := logic.DelegationMember(*chain, string(req.Requests[0].Op), now)
		if err != nil {
			return d.deny(group, "delegation derivation failed: "+err.Error())
		}
		memR.mem = m
		memR.certValidity = clock.NewInterval(chain.T.Time(), chain.T.End())
		memR.memStep = pr.Append(logic.RuleResidualLeaf, nil, m, now,
			"membership of "+subject+" in "+group+" derived from the absorbed delegation chain ["+chain.Path+"]")
	} else {
		mem, ok := memHit.formula.(logic.MemberOf)
		if !ok {
			return d.deny(group, "membership derivation produced unexpected formula")
		}
		if reason := membershipLeafDenial(store, mc.signerKey, memHit.formula, now); reason != "" {
			return d.deny(group, reason)
		}
		memR.mem = mem
		memR.memStep = pr.Append(logic.RuleResidualLeaf, nil, memHit.formula, now, memHit.note) // mem, as cached
	}
	return s.concludeResidual(d, st, sc, req, memR, res, true)
}

// decideCold is the residual decider's cold arm, for a request with a
// certificate not yet cached: Steps 1–2 run exactly as the replay runs
// them (verifyCerts), into a fork of the snapshot's engine whose proof
// becomes the decision's, so the derivation of every certificate this
// request verified stays in its proof. Only then, with the membership
// certificate verified, is the residue looked up and spliced after them
// (Splice remaps a segment that lands late).
func (s *Server) decideCold(d *decision, st *state, sc *reqScratch, req *AccessRequest) (Decision, error) {
	_, memR, err := s.verifyCerts(d, st, sc, req)
	if err != nil {
		return d.fail(memR.group, err)
	}
	res, err := s.spliceResidue(st, memR.group, d.proof, conclusionSteps(req))
	if err != nil {
		return d.deny(memR.group, err.Error())
	}
	return s.concludeResidual(d, st, sc, req, memR, res, false)
}

// concludeResidual is Steps 3–4 on both arms of the residual decider, once
// Steps 1–2 have filled sc.keys and established memR and res is spliced
// into d.proof: the signer checks the replay shares, one signed-utterance
// leaf per co-signer, the statement-25 conclusion, and Step 4 over the
// residue's recorded closure. A warm proof keeps the residue's segment at
// its recorded position, so its audit entry renders from the snapshot's
// shared renderings; a cold proof renders whole.
func (s *Server) concludeResidual(d *decision, st *state, sc *reqScratch, req *AccessRequest, memR membershipResult, res *residue, warm bool) (Decision, error) {
	now, pr, group := d.now, d.proof, memR.group
	d.tr.begin(StepCosign)
	if err := sc.verifySigners(d.ctx, req); err != nil {
		return d.fail(group, err)
	}
	utterances := grow(sc.utter, len(req.Requests))
	sc.utter = utterances
	premises := append(sc.premises[:0], memR.memStep)
	content := idealContent(&req.Requests[0])
	for i := range req.Requests {
		r := &req.Requests[i]
		key, _ := sc.signer(req, r.User)
		// The signed form of the utterance, exactly as VerifySignedRequest
		// records it — A38 consumes it to check each co-signer's bound key.
		// The speaker is boxed once for both Says.
		var who logic.Subject = logic.P(r.User)
		utterances[i] = logic.Says{Who: who, T: logic.At(r.At), X: signedUtterance(who, r.At, content, key.ks.K)}
		premises = append(premises, pr.Append(logic.RuleResidualLeaf, nil, utterances[i], now,
			"signed utterance of "+r.User+" verified against the cached key binding"))
	}
	sc.premises = premises
	gs, rule, err := logic.DeriveGroupSays(memR.mem, utterances, now, func(who string) (logic.KeySpeaksFor, bool) {
		key, ok := sc.signer(req, who)
		return key.ks, ok
	})
	if err != nil {
		return d.deny(group, "threshold not met: "+err.Error())
	}
	pr.Append(rule, premises, gs, now, "statement 25: G says X")

	// ---- Step 4 against the residue's recorded closure. ----
	var derivation fmt.Stringer = pr
	if warm && d.tr.sink {
		derivation = &residualDerivation{base: st.residues.baseTrace, seg: res.segTrace, proof: pr, prefixLen: res.prefixLen}
	}
	return d.approve(gs, res.reachable(group, now), memR.certValidity, derivation)
}

// conclusionSteps counts the steps concludeResidual appends: one
// signed-utterance leaf per co-signer and the statement-25 conclusion.
func conclusionSteps(req *AccessRequest) int { return len(req.Requests) + 1 }

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
