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
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
)

// residualEdge is one believed relation edge recorded into a residue —
// a plain group link (budget-preserving) or a bounded group-graph edge;
// the validity term is re-checked at request time.
type residualEdge struct {
	from, to string
	t        logic.TimeSpec
	// bounded marks a group-graph edge: crossing it costs one unit of
	// traversal budget and clamps the remainder to depth.
	bounded bool
	depth   int
}

// cross returns the traversal budget left after crossing e with budget
// in hand — group links preserve it, graph edges cost one unit and clamp
// to their depth bound — and whether the edge can be crossed at all.
func (e residualEdge) cross(budget int) (int, bool) {
	if !e.bounded {
		return budget, true
	}
	if budget < 1 {
		return 0, false
	}
	return min(budget-1, e.depth), true
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

// reachable returns group plus every group reachable from it through
// recorded edges whose validity covers now — the residual counterpart of
// BeliefStore.EffectiveGroups, running the same budget-relaxation walk:
// a node is re-relaxed only on a strict budget improvement (cycle-safe).
func (r *residue) reachable(group string, now clock.Time) []string {
	out := []string{group}
	if len(r.edges) == 0 {
		return out
	}
	best := map[string]int{group: delegation.Unbounded}
	queue := []string{group}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range r.edges {
			if e.from != cur || !e.t.Covers(now) {
				continue
			}
			nb, ok := e.cross(best[cur])
			if !ok {
				continue
			}
			prev, seen := best[e.to]
			if !seen {
				out = append(out, e.to)
			}
			if !seen || nb > prev {
				best[e.to] = nb
				queue = append(queue, e.to)
			}
		}
	}
	return out
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
	adj    map[string][]int // group → indices of the edges leaving it
	delegs map[string][]logic.Entry
}

func buildRelIndex(eng *logic.Engine) *relIndex {
	ix := &relIndex{
		base:   eng.Proof(),
		adj:    make(map[string][]int),
		delegs: make(map[string][]logic.Entry),
	}
	add := func(e residualEdge, entry logic.Entry) {
		ix.adj[e.from] = append(ix.adj[e.from], len(ix.edges))
		ix.edges = append(ix.edges, relEdge{e, entry})
	}
	for _, e := range eng.Store().GroupLinks() {
		l := e.F.(logic.GroupSpeaksFor)
		add(residualEdge{from: l.Sub.Name, to: l.Sup.Name, t: l.T}, e)
	}
	for _, e := range eng.Store().GraphEdges() {
		l := e.F.(logic.GroupGraphEdge)
		add(residualEdge{from: l.Sub.Name, to: l.Sup.Name, t: l.T, bounded: true, depth: l.Depth}, e)
	}
	for _, e := range eng.Store().Delegations() {
		g := e.F.(logic.Delegates).G.Name
		ix.delegs[g] = append(ix.delegs[g], e)
	}
	return ix
}

// reach returns every edge crossable from g under the budget walk
// (validity windows are checked per request). An edge is recorded when
// it leaves a reachable node with budget to spare, so a residue never
// bakes in a hop the live walk could not take.
func (ix *relIndex) reach(g string) []relEdge {
	best := map[string]int{g: delegation.Unbounded}
	frontier := []string{g}
	used := make(map[int]bool)
	var out []relEdge
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, ei := range ix.adj[n] {
			e := ix.edges[ei]
			nb, ok := e.cross(best[n])
			if !ok {
				continue
			}
			if !used[ei] {
				used[ei] = true
				out = append(out, e)
			}
			if prev, seen := best[e.to]; !seen || nb > prev {
				best[e.to] = nb
				frontier = append(frontier, e.to)
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
			"recorded for residue "+g+": "+e.from+" ⇒ "+e.to))
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

// SetResidualsEnabled toggles the residual fast path in Authorize
// (enabled by default). Disabling forces every request down the full
// derivation replay, the reference path; memoized residues are kept, so
// re-enabling needs no recompilation. Benchmarks use this to compare
// both paths on one harness run.
func (s *Server) SetResidualsEnabled(on bool) { s.noResidual.Store(!on) }

// tryResidual attempts the residual fast path: find the cached
// certificate verifications, look up (or compile) the residue for the
// requesting group, discharge the leaf checks, and emit the full proof by
// splicing the recorded segment with fresh leaf steps. ok=false means the
// request could not be decided residually — cold cache or an unsupported
// membership shape — and nothing was traced or counted: the caller falls
// back to the full replay, which re-runs everything but the fingerprints
// left in sc. Cached verifications may predate this snapshot (the cache
// belongs to the key epoch); everything a mutation can change is a leaf
// checked below against st, and the residue is st's own.
func (s *Server) tryResidual(ctx context.Context, st *state, sc *reqScratch, req *AccessRequest) (Decision, error, bool) {
	if len(req.Requests) == 0 {
		return Decision{}, nil, false
	}
	now := s.clk.Now()
	op := req.Requests[0].Op
	object := req.Requests[0].Object

	// The request's working set — lookup maps, leaf-check slices, body
	// encodings — lives in the caller's pooled scratch; only the proof (and
	// the strings on the Decision) escape.
	sc.fingerprint(req)
	memFP := sc.memFP

	// The attribute certificate names the requesting group and binds the
	// co-signers' keys; its verification must be cached.
	var (
		group        string
		issuer       string
		signerKey    string
		certValidity clock.Interval
	)
	boundKey := sc.boundKey
	if req.Delegated {
		c := req.Delegation.Cert
		group, issuer = c.Group, c.Issuer
		boundKey[c.Subject.Name] = c.Subject.KeyID
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
	} else if req.SingleSubject {
		c := req.Single.Cert
		group, issuer, signerKey = c.Group, c.Issuer, req.Single.SignerKey
		boundKey[c.Subject.Name] = c.Subject.KeyID
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
	} else {
		c := req.Threshold.Cert
		group, issuer, signerKey = c.Group, c.Issuer, req.Threshold.SignerKey
		for _, sub := range c.Subjects {
			boundKey[sub.Name] = sub.KeyID
		}
		certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
	}
	if issuer != st.anchors.AAName {
		return Decision{}, nil, false // full path renders the exact denial
	}
	// The fingerprint covers the certificate body, so a hit means a
	// verified certificate names exactly this group.
	memHit, ok := st.cache.get(memFP)
	if !ok {
		return Decision{}, nil, false
	}
	res := s.residueFor(st, group)
	if res == nil {
		return Decision{}, nil, false
	}
	var (
		mem    logic.MemberOf
		dcands []logic.Delegates
	)
	if req.Delegated {
		// The cached leaf must be a delegation link and the residue must
		// have absorbed a composed chain for the subject.
		if _, ok := memHit.formula.(logic.Delegates); !ok {
			return Decision{}, nil, false
		}
		dcands = res.delegs[req.Delegation.Cert.Subject.Name]
		if len(dcands) == 0 {
			return Decision{}, nil, false
		}
	} else {
		mem, ok = memHit.formula.(logic.MemberOf)
		if !ok {
			return Decision{}, nil, false
		}
		// Membership shapes with a residual conclusion: threshold compound
		// principal (A38) and single principal (A34/A35). Anything else goes
		// through ConcludeGroupSays's full dispatch.
		switch who := mem.Who.(type) {
		case logic.Principal:
		case logic.CompoundPrincipal:
			if !who.IsThreshold() {
				return Decision{}, nil, false
			}
		default:
			return Decision{}, nil, false
		}
	}
	idHits := grow(sc.idHits, len(req.Identities))
	sc.idHits = idHits
	for i := range req.Identities {
		e, ok := st.cache.get(sc.idFPs[i])
		if !ok {
			return Decision{}, nil, false
		}
		if _, ok := e.formula.(logic.KeySpeaksFor); !ok {
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

	// Committed to the fast path: from here every outcome is decided
	// residually, with the same traces, metrics and denial reasons the
	// full path produces.
	s.hot.residualHits.Inc()
	s.hot.cacheHitAttribute.Inc()
	s.hot.cacheHitIdentity.Add(int64(len(req.Identities)))
	tr := s.beginTrace()
	deny := func(group, reason string) (Decision, error, bool) {
		dec, err := s.deny(tr, req, group, reason, pr)
		return dec, err, true
	}
	abort := func(err error) (Decision, error, bool) {
		dec, aerr := s.abort(tr, err)
		return dec, aerr, true
	}

	tr.begin(StepFreshness)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if w := st.anchors.FreshnessWindow; w > 0 {
		for _, r := range req.Requests {
			delta := int64(now) - int64(r.At)
			if delta < 0 {
				delta = -delta
			}
			if delta > w {
				return deny("", fmt.Sprintf("request of %s at %s outside freshness window (now %s): %v",
					r.User, r.At, now, ErrStale))
			}
		}
	}

	store := st.eng.Store()

	// ---- Step 1 leaves: cached identity verifications, re-checked at the
	// current time against this snapshot — validity of every certificate
	// first (the replay checks it with the signatures, before any
	// derivation), then issuer and key revocation in certificate order. ----
	tr.begin(StepCerts)
	for i, e := range idHits {
		if !e.validity.Contains(now) {
			return deny("", fmt.Sprintf("identity certificate invalid: %v", s.expiredHit(st, sc.idFPs[i], e, now)))
		}
	}
	userKeys, userKS := sc.userKeys, sc.userKS
	for i := range req.Identities {
		idc, e := &req.Identities[i], idHits[i]
		ks := e.formula.(logic.KeySpeaksFor)
		if reason := identityLeafDenial(store, idc, ks, now); reason != "" {
			return deny("", reason)
		}
		pr.Append(logic.RuleResidualLeaf, nil, ks, now, e.note)
		userKeys[idc.Cert.Subject] = e.subjectKey
		userKS[idc.Cert.Subject] = ks
	}

	// ---- Step 2 leaf: cached membership, re-checked for validity, the
	// AA's key and revocation. On the delegated path the leaves are the
	// absorbed chain's interval, the op-in-perms check, and per-link
	// revocation (subject plus every delegator on the path). ----
	tr.begin(StepThreshold)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if !memHit.validity.Contains(now) {
		return deny(group, fmt.Sprintf("%s certificate invalid: %v", certKind(req), s.expiredHit(st, memFP, memHit, now)))
	}
	var memStep int
	if req.Delegated {
		subject := req.Delegation.Cert.Subject.Name
		var chain *logic.Delegates
		revokedSeen := false
		for i := range dcands {
			d := &dcands[i]
			if !d.T.Covers(now) {
				continue
			}
			linkRevoked := false
			for _, name := range delegation.Links(*d) {
				if store.Revoked(logic.P(name), logic.G(group), now) {
					linkRevoked = true
					break
				}
			}
			if linkRevoked {
				revokedSeen = true
				continue
			}
			chain = d
			break // deepest first: the chain DelegationFor would pick
		}
		if chain == nil {
			if revokedSeen {
				s.reg.Counter(delegation.MetricLinkRevocationDenials).Inc()
				return deny(group, fmt.Sprintf("delegation derivation failed: a chain link for %s in %s is revoked as of %s",
					subject, group, now))
			}
			return deny(group, fmt.Sprintf("delegation derivation failed: no believed chain for %s in %s valid at %s",
				subject, group, now))
		}
		m, err := logic.DelegationMember(*chain, string(op), now)
		if err != nil {
			return deny(group, "delegation derivation failed: "+err.Error())
		}
		mem = m
		certValidity = clock.NewInterval(chain.T.Time(), chain.T.End())
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now,
			"membership of "+subject+" in "+group+" derived from the absorbed delegation chain ["+chain.Path+"]")
	} else {
		if reason := membershipLeafDenial(store, signerKey, mem, now); reason != "" {
			return deny(group, reason)
		}
		memStep = pr.Append(logic.RuleResidualLeaf, nil, mem, now, memHit.note)
	}

	// ---- Step 3 leaves: structural checks, RSA co-signature
	// verification, signed-utterance steps. ----
	tr.begin(StepCosign)
	items := grow(sc.items, len(req.Requests))
	sc.items = items
	sigs := grow(sc.sigs, len(req.Requests))
	sc.sigs = sigs
	bodyBuf, bodyOff := sc.bodyBuf[:0], sc.bodyOff[:0]
	for i, r := range req.Requests {
		if r.Op != op || r.Object != object {
			return deny(group, "co-signers disagree on the request")
		}
		upk, ok := userKeys[r.User]
		if !ok {
			return deny(group, fmt.Sprintf("%s: %v", r.User, ErrMissingIdentity))
		}
		want, ok := boundKey[r.User]
		if !ok {
			return deny(group, r.User+" is not a subject of the threshold certificate")
		}
		// The cached Step-1 formula's key ID is the verified ID of upk, so
		// a string compare replaces re-hashing the key (KeyID is
		// sha256 + hex per call — measurable at load-harness rates).
		if string(userKS[r.User].K) != want {
			return deny(group, r.User+"'s identity key differs from the certificate binding")
		}
		// All bodies append into one pooled buffer; the item slices are
		// fixed up below, once the buffer stops growing. The signature
		// values parse into pooled big.Ints (ParseHex reuses their limbs).
		start := len(bodyBuf)
		bodyBuf = appendRequestBody(bodyBuf, &req.Requests[i])
		bodyOff = append(bodyOff, start, len(bodyBuf))
		sig := &sigs[i]
		if _, ok := sharedrsa.ParseHex(sig, r.SigS); !ok {
			sc.bodyBuf, sc.bodyOff = bodyBuf, bodyOff
			return deny(group, r.User+": malformed signature")
		}
		items[i] = cosignItem{user: r.User, sig: sharedrsa.Signature{S: sig}, upk: upk}
	}
	sc.bodyBuf, sc.bodyOff = bodyBuf, bodyOff
	for i := range items {
		items[i].body = bodyBuf[bodyOff[2*i]:bodyOff[2*i+1]]
	}
	err := verifyCosignatures(ctx, items)
	if err != nil {
		if ctxErr(err) {
			return abort(err)
		}
		return deny(group, err.Error())
	}
	utterances := grow(sc.utter, len(req.Requests))
	sc.utter = utterances
	utterSteps := grow(sc.utterSteps, len(req.Requests))
	sc.utterSteps = utterSteps
	for i, r := range req.Requests {
		// The signed form of the utterance, exactly as VerifySignedRequest
		// records it — A38 consumes it to check each co-signer's bound key.
		content := idealContent(op, object, r.Payload)
		signed := logic.Sign(logic.AsMessage(logic.Says{
			Who: logic.P(r.User),
			T:   logic.At(r.At),
			X:   content,
		}), userKS[r.User].K)
		says := logic.Says{Who: logic.P(r.User), T: logic.At(r.At), X: signed}
		utterances[i] = says
		utterSteps[i] = pr.Append(logic.RuleResidualLeaf, nil, says, now,
			"signed utterance of "+r.User+" verified against the cached key binding")
	}

	// Conclude "G says X" (statement 25) with the pure axiom functions —
	// the same rules ConcludeGroupSays dispatches to, minus its store
	// bookkeeping.
	var gs logic.GroupSays
	var rule string
	switch who := mem.Who.(type) {
	case logic.Principal:
		if who.IsBound() {
			ks, ok := userKS[who.Name]
			if !ok {
				return deny(group, "threshold not met: group says: no key belief for bound member "+who.Name)
			}
			gs, err = logic.A35MemberSaysKeyBound(mem, ks, utterances[0])
			rule = logic.RuleA35GroupSaysKey
		} else {
			gs, err = logic.A34MemberSays(mem, utterances[0])
			rule = logic.RuleA34GroupSays
		}
	case logic.CompoundPrincipal:
		gs, err = logic.A38Threshold(mem, utterances, now)
		rule = logic.RuleA38Threshold
	}
	if err != nil {
		return deny(group, "threshold not met: "+err.Error())
	}
	premises := append(append(sc.premises[:0], memStep), utterSteps...)
	sc.premises = premises
	pr.Append(rule, premises, gs, now, "statement 25: G says X")

	// ---- Step 4: the live ACL (the only place the object enters)
	// against the residue's link closure, plus the temporal condition
	// tb' ≤ t1 ∧ t6 ≤ te'. ----
	tr.begin(StepACL)
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	a, err := s.objects.ACLOf(object)
	if err != nil {
		return deny(group, "object lookup: "+err.Error())
	}
	allowed := false
	for _, g := range res.reachable(group, now) {
		if a.Allows(g, op) {
			allowed = true
			break
		}
	}
	if !allowed {
		return deny(group, fmt.Sprintf("(%s, %s) ∉ ACL_%s (including inherited groups)", group, op, object))
	}
	if certValidity.Begin > req.Requests[0].At || now > certValidity.End {
		return deny(group, "certificate validity does not span the request")
	}

	// Execute.
	tr.begin(StepExecute)
	data, err := s.execute(op, object, req.Requests[0].Payload, group)
	if err != nil {
		return deny(group, "execution failed: "+err.Error())
	}

	tr.endOK()
	tr.finish(true, "")
	var derivation fmt.Stringer
	if tr.sink {
		derivation = &residualDerivation{base: st.residues.baseTrace, seg: res.segTrace, proof: pr, prefixLen: res.prefixLen}
	}
	s.audit(audit.Entry{
		At: now, Outcome: audit.Approved, Server: s.name,
		Requestor: req.Requests[0].User, Operation: string(op),
		Object: object, Group: group,
		Reason:     gs.String(),
		RequestID:  tr.id,
		Spans:      tr.spans,
		Derivation: derivation,
	})
	return Decision{Allowed: true, Group: group, Reason: gs.String(), RequestID: tr.id, Proof: pr, Data: data}, nil, true
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

// execute performs the approved operation on the object store (shared by
// the residual fast path and the full replay path).
func (s *Server) execute(op acl.Permission, object string, payload []byte, group string) ([]byte, error) {
	switch op {
	case acl.Read:
		return s.objects.Read(object)
	case acl.Write:
		return nil, s.objects.Write(object, payload, group)
	case acl.Modify:
		var entries []acl.Entry
		if err := json.Unmarshal(payload, &entries); err != nil {
			return nil, err
		}
		newACL, err := acl.NewACL(entries...)
		if err != nil {
			return nil, err
		}
		return nil, s.objects.SetACL(object, newACL, group)
	default:
		return nil, fmt.Errorf("unsupported operation %q", op)
	}
}
