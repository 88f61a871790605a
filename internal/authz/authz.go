// Package authz implements the coalition application server P and the
// authorization protocol of Section 4.3 / Appendix E. Every access
// decision runs in two coupled layers, kept in exact correspondence by
// internal/pki's idealization:
//
//  1. cryptographic verification — real RSA-FDH signatures on the wire
//     certificates and on the users' signed requests, and
//  2. logical derivation — Steps 1–4 of the protocol executed in the
//     access-control logic (internal/logic), producing the numbered
//     statement chain of the paper and ending in "G says op O" plus the
//     ACL check.
//
// A request is approved only if both layers succeed; the derivation is
// recorded in the audit log, which renders it to text when read.
//
// Concurrency model: the server's belief state is an immutable snapshot
// (snapshot.go) swapped atomically by the belief-mutating operations.
// Authorize is lock-free and starts no goroutine — it forks the snapshot's
// engine into per-request scratch, verifies the co-signer signatures in the
// caller's goroutine, and memoizes certificate verifications in the key
// epoch's fingerprint-keyed cache (snapshot.go). Steps 1–3 are independent
// per request given a fixed belief set, which is exactly what makes
// concurrent requests safe.
package authz

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// Sentinel errors.
var (
	// ErrDenied indicates the request failed a protocol step.
	ErrDenied = errors.New("authz: access denied")
	// ErrStale indicates a request timestamp outside the freshness window.
	ErrStale = errors.New("authz: request not fresh")
	// ErrMissingIdentity indicates a co-signer without an identity
	// certificate in the request.
	ErrMissingIdentity = errors.New("authz: co-signer identity certificate missing")
)

// TrustAnchors is the server's initial configuration: the beliefs of
// Appendix E statements 1–11 in wire form.
type TrustAnchors struct {
	// AAName and AAKey identify the coalition attribute authority; Domains
	// are the member domains holding shares of KAA⁻¹ (statement 1).
	AAName  string
	AAKey   sharedrsa.PublicKey
	Domains []string
	// CAKeys maps each domain CA's name to its verification key
	// (statements 6–11).
	CAKeys map[string]sharedrsa.PublicKey
	// RAName and RAKey identify the revocation authority (Section 4.3).
	RAName string
	RAKey  sharedrsa.PublicKey
	// TrustSince is t*, the time from which time-stamped certificates may
	// be believed.
	TrustSince clock.Time
	// FreshnessWindow bounds |server time − request timestamp| (axiom A21
	// applied as in Stubblebine–Wright). 0 disables the check.
	FreshnessWindow int64
}

// UserRequest is one co-signer's signed request component (message 1-4).
type UserRequest struct {
	User    string         `json:"user"`
	At      clock.Time     `json:"at"`
	Op      acl.Permission `json:"op"`
	Object  string         `json:"object"`
	Payload []byte         `json:"payload,omitempty"` // write content / new ACL
	SigS    string         `json:"sig"`               // hex FDH-RSA signature
}

// requestBody is the canonical signed payload of a UserRequest: the
// json.Marshal encoding of its signed fields, produced by the
// allocation-free encoder in encode.go (byte-equivalence with
// encoding/json is pinned by test, since signatures are over these
// exact bytes).
func requestBody(r UserRequest) []byte {
	return appendRequestBody(nil, &r)
}

// SignRequest produces a signed request component for a user key pair.
func SignRequest(user string, at clock.Time, op acl.Permission, object string, payload []byte, kp *pki.KeyPair) (UserRequest, error) {
	r := UserRequest{User: user, At: at, Op: op, Object: object, Payload: payload}
	sig := kp.Sign(requestBody(r))
	r.SigS = sig.S.Text(16)
	return r, nil
}

// AccessRequest is a complete joint access request (Figure 2(b)): the
// co-signers' identity certificates, an attribute certificate — threshold
// (CP(m,n) ⇒ G, axiom A38) or single-subject (P|K ⇒ G, the selective
// distribution of axiom A35) — and the signed request components. Exactly
// one of Threshold/Single must be set; Single is set iff SingleSubject.
type AccessRequest struct {
	Identities []pki.Signed[pki.Identity]         `json:"identities"`
	Threshold  pki.Signed[pki.ThresholdAttribute] `json:"threshold,omitempty"`
	// SingleSubject selects the A35 path using Single.
	SingleSubject bool                      `json:"singleSubject,omitempty"`
	Single        pki.Signed[pki.Attribute] `json:"single,omitempty"`
	// Delegated selects the delegation path: Step 2 derives membership
	// from the server's believed root-anchored delegation chain ending at
	// Delegation's subject (depth-bounded, permission-attenuated), instead
	// of an attribute certificate. Delegation is the chain's leaf
	// certificate, identifying which installed chain the request invokes.
	Delegated  bool                       `json:"delegated,omitempty"`
	Delegation pki.Signed[pki.Delegation] `json:"delegation,omitempty"`
	Requests   []UserRequest              `json:"requests"`
}

// Decision is the outcome of the authorization protocol.
type Decision struct {
	Allowed bool
	Group   string
	Reason  string
	// DeniedStep names the protocol step that denied the request (one of
	// the Step* constants; empty when Allowed), so callers can classify
	// denials without parsing audit text.
	DeniedStep string
	// RequestID correlates the decision with its audit entry and metrics.
	RequestID string
	// Proof is the derivation that justified the decision (nil on
	// cryptographic rejection before any derivation started). The
	// decision's audit entry holds the same proof and renders it when
	// read, so it is read-only.
	Proof *logic.Proof
	// Data carries read results.
	Data []byte
}

// Server is the coalition application server P of Figure 1.
type Server struct {
	name    string
	clk     *clock.Clock
	objects *acl.Store
	log     *audit.Log

	// reg receives the server's metrics (Instrument); nil drops them.
	reg *obs.Registry
	// hot caches the per-step metric handles the Authorize path observes
	// on every request, so the hot path never pays a registry lookup
	// (rebuilt by Instrument; see buildHotMetrics).
	hot hotMetrics
	// reqSeq numbers evaluated requests for audit/metrics correlation.
	reqSeq atomic.Uint64
	// noResidual, when set, bypasses the precompiled-residue fast path
	// (SetResidualsEnabled).
	noResidual atomic.Bool
	// batchVerify enables k-way batched verification of cache-miss
	// identity certificates (SetBatchVerify).
	batchVerify atomic.Bool
	// noPool, when set, disables per-request pooling of engine forks and
	// residual scratch (SetPooling).
	noPool atomic.Bool

	// mu serializes belief-mutating operations; Authorize never takes it.
	mu sync.Mutex
	// state is the current immutable belief snapshot (snapshot.go).
	state atomic.Pointer[state]
	// journal, when set, durably records every belief mutation before it
	// is acknowledged, plus audit entries (journal.go). Stored atomically
	// because the lock-free Authorize path writes audit records.
	journal atomic.Pointer[journalBox]
}

// NewServer configures a server with its trust anchors and object store.
// The audit log may be nil.
func NewServer(name string, clk *clock.Clock, anchors TrustAnchors, objects *acl.Store, log *audit.Log) *Server {
	s := &Server{
		name:    name,
		clk:     clk,
		objects: objects,
		log:     log,
	}
	s.buildHotMetrics()
	s.state.Store(newState(anchors, freshEngine(name, clk, anchors), 0, 0, newCertCache()))
	return s
}

// freshEngine installs the initial beliefs (Appendix E statements 1–11)
// and seals the engine, so per-request forks of the published snapshot are
// O(1) regardless of the base belief count.
func freshEngine(name string, clk *clock.Clock, a TrustAnchors) *logic.Engine {
	eng := logic.NewEngine(name, clk)
	horizon := clock.Infinity

	// Statement 1: KAA ⇒ [t*, t],P CP(n,n) over the member domains.
	domains := make([]logic.Principal, len(a.Domains))
	for i, d := range a.Domains {
		domains[i] = logic.P(d)
	}
	cp := logic.CP(domains...).WithThreshold(len(domains))
	aaKeyID := logic.KeyID(a.AAKey.KeyID())
	eng.Assume(logic.KeySpeaksFor{K: aaKeyID, T: logic.During(a.TrustSince, horizon).On(name), Who: cp},
		"statement 1: KAA ⇒ CP(n,n)")
	// Reading convention of Section 4.3: "we say that AA signs messages
	// with key KAA as well".
	eng.Assume(logic.KeySpeaksFor{K: aaKeyID, T: logic.During(a.TrustSince, horizon).On(name), Who: logic.P(a.AAName)},
		"AA speaks with the shared key (reading convention)")
	// Statements 2–3: AA's jurisdiction over group membership.
	eng.Assume(logic.MembershipJurisdiction{Authority: logic.P(a.AAName), AuthorityName: a.AAName},
		"statements 2–3: AA controls membership")
	// Statements 4–5: AA's jurisdiction over certificate accuracy times.
	eng.Assume(logic.SaysTimeJurisdiction{Authority: logic.P(a.AAName), Since: a.TrustSince, Server: name},
		"statements 4–5: AA controls accuracy time")

	// Statements 6–11: each CA's key and jurisdictions. Sorted order so
	// two servers sealed from the same anchors derive byte-identical
	// proof traces (map iteration order would otherwise leak into the
	// audit log and make traces irreproducible across restarts).
	cas := make([]string, 0, len(a.CAKeys))
	for ca := range a.CAKeys {
		cas = append(cas, ca)
	}
	sort.Strings(cas)
	for _, ca := range cas {
		key := a.CAKeys[ca]
		eng.Assume(logic.KeySpeaksFor{K: logic.KeyID(key.KeyID()), T: logic.During(a.TrustSince, horizon).On(name), Who: logic.P(ca)},
			"K"+ca+" ⇒ "+ca)
		eng.Assume(logic.KeyJurisdiction{CA: logic.P(ca)},
			ca+" controls identity keys (statements 6–11)")
		eng.Assume(logic.SaysTimeJurisdiction{Authority: logic.P(ca), Since: a.TrustSince, Server: name},
			ca+" controls accuracy time")
	}

	// RA: authorized to provide revocation information on behalf of AA.
	if a.RAName != "" {
		eng.Assume(logic.KeySpeaksFor{K: logic.KeyID(a.RAKey.KeyID()), T: logic.During(a.TrustSince, horizon).On(name), Who: logic.P(a.RAName)},
			"KRA ⇒ RA")
		eng.Assume(logic.MembershipJurisdiction{Authority: logic.P(a.RAName), AuthorityName: a.RAName},
			"RA provides revocation information on behalf of AA")
		eng.Assume(logic.SaysTimeJurisdiction{Authority: logic.P(a.RAName), Since: a.TrustSince, Server: name},
			"RA controls accuracy time")
	}
	return eng.Seal()
}

// Engine returns a private fork of the current belief snapshot's engine:
// derivations on it never affect (or race with) the server. Use Snapshot
// for versioned access.
func (s *Server) Engine() *logic.Engine {
	return s.Snapshot().Engine()
}

// Objects exposes the server's object store.
func (s *Server) Objects() *acl.Store { return s.objects }

// deny closes the trace's current span as denied, records the denial in
// the metrics and the audit log (step-labeled), and returns it.
func (s *Server) deny(tr *reqTrace, req *AccessRequest, group, reason string, proof *logic.Proof) (Decision, error) {
	step := tr.step
	if step == "" {
		step = StepFreshness
	}
	tr.end("denied", reason)
	tr.finish(false, step)
	requestor := ""
	var op acl.Permission
	object := ""
	if len(req.Requests) > 0 {
		requestor = req.Requests[0].User
		op = req.Requests[0].Op
		object = req.Requests[0].Object
	}
	// The entry keeps the proof, not its text: the log renders it when
	// read (a nil *logic.Proof must not become a non-nil Stringer).
	var derivation fmt.Stringer
	if proof != nil {
		derivation = proof
	}
	s.audit(audit.Entry{
		At: s.clk.Now(), Outcome: audit.Denied, Server: s.name,
		Requestor: requestor, Operation: string(op), Object: object,
		Group: group, Reason: reason,
		RequestID: tr.id, Spans: tr.spans, Derivation: derivation,
	})
	return Decision{Allowed: false, Group: group, Reason: reason, DeniedStep: step, RequestID: tr.id, Proof: proof},
		fmt.Errorf("%w: %s", ErrDenied, reason)
}

// abort closes the trace for a request whose context was canceled: the
// outcome is neither an approval nor a protocol denial, so it is counted
// separately and not written to the audit log.
func (s *Server) abort(tr *reqTrace, err error) (Decision, error) {
	step := tr.step
	if step == "" {
		step = StepFreshness
	}
	tr.end("canceled", err.Error())
	tr.finishCanceled(step)
	return Decision{Allowed: false, Reason: err.Error(), DeniedStep: step, RequestID: tr.id},
		fmt.Errorf("authz: request aborted at %s: %w", step, err)
}

// ctxErr reports whether err stems from context cancellation.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Authorize runs the full authorization protocol on a joint access request
// and, if approved, performs the operation on the object store. The
// evaluation is traced: each protocol step becomes a timed span in the
// audit entry, correlated by the decision's RequestID.
//
// Authorize first attempts the residual checklist for the requesting
// group (residual.go): the snapshot-invariant proof steps are recorded
// once per snapshot, so only the request-variable leaf checks run, and
// the full proof is emitted by splicing. When no residue applies — cold
// certificate cache, unsupported membership shape, or residuals disabled
// — it falls back to the full derivation replay below.
//
// Authorize is lock-free and safe for arbitrary concurrency: it evaluates
// against the belief snapshot current at entry. The context cancels the
// evaluation between steps and between signature verifications.
func (s *Server) Authorize(ctx context.Context, req AccessRequest) (Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.authorizeAt(ctx, s.state.Load(), req)
}

// authorizeAt decides req against snapshot st, the one Authorize found
// current at entry. A publish may overtake a running request: it keeps
// deciding against st, and what it memoizes in st.cache stays sound for
// the snapshots that follow (snapshot.go).
func (s *Server) authorizeAt(ctx context.Context, st *state, req AccessRequest) (Decision, error) {
	// The request's working set comes from the scratch pool and is cleared
	// on return; it also carries the certificate fingerprints from the
	// residual attempt to the replay, so each is computed once.
	sc := s.getScratch()
	defer s.putScratch(sc)
	if !s.noResidual.Load() {
		if dec, err, ok := s.tryResidual(ctx, st, sc, &req); ok {
			return dec, err
		}
		s.hot.residualFallbacks.Inc()
	}
	eng := s.fork(st)
	// The decision escapes only the proof (never pooled); the engine and
	// its store go back to the fork pool once the evaluation returns.
	defer eng.Recycle()
	now := s.clk.Now()
	tr := s.beginTrace()

	tr.begin(StepFreshness)
	if err := ctx.Err(); err != nil {
		return s.abort(tr, err)
	}
	if len(req.Requests) == 0 {
		return s.deny(tr, &req, "", "no signed request components", nil)
	}
	op := req.Requests[0].Op
	object := req.Requests[0].Object

	// Freshness (axiom A21, Stubblebine–Wright style window check).
	if w := st.anchors.FreshnessWindow; w > 0 {
		for _, r := range req.Requests {
			delta := int64(now) - int64(r.At)
			if delta < 0 {
				delta = -delta
			}
			if delta > w {
				return s.deny(tr, &req, "", fmt.Sprintf("request of %s at %s outside freshness window (now %s): %v",
					r.User, r.At, now, ErrStale), eng.Proof())
			}
		}
	}

	// ---- Step 1: verify the signing keys (messages 1-1, 1-2). ----
	tr.begin(StepCerts)
	sc.fingerprint(&req)
	userKeys, err := s.verifyIdentities(ctx, st, eng, req.Identities, sc.idFPs, now)
	if err != nil {
		if ctxErr(err) {
			return s.abort(tr, err)
		}
		return s.deny(tr, &req, "", err.Error(), eng.Proof())
	}

	// ---- Step 2: establish group membership (message 1-3). ----
	tr.begin(StepThreshold)
	if err := ctx.Err(); err != nil {
		return s.abort(tr, err)
	}
	memR, err := s.verifyMembership(st, eng, &req, sc.memFP, now)
	if err != nil {
		return s.deny(tr, &req, memR.group, err.Error(), eng.Proof())
	}
	group := memR.group

	// ---- Step 3: verify the signed request (message 1-4). ----
	tr.begin(StepCosign)
	utterances, utterSteps, err := s.verifyCosigners(ctx, eng, &req, op, object, userKeys, memR.boundKey, now)
	if err != nil {
		if ctxErr(err) {
			return s.abort(tr, err)
		}
		return s.deny(tr, &req, group, err.Error(), eng.Proof())
	}

	// A38: conclude G says op (statement 25).
	gs, _, err := eng.ConcludeGroupSays(memR.mem, memR.memStep, utterances, utterSteps)
	if err != nil {
		return s.deny(tr, &req, group, "threshold not met: "+err.Error(), eng.Proof())
	}

	// ---- Step 4: verify the ACL. ----
	tr.begin(StepACL)
	if err := ctx.Err(); err != nil {
		return s.abort(tr, err)
	}
	a, err := s.objects.ACLOf(object)
	if err != nil {
		return s.deny(tr, &req, group, "object lookup: "+err.Error(), eng.Proof())
	}
	// Privilege inheritance: the group itself or any supergroup it speaks
	// for (accepted group-link certificates) may appear on the ACL.
	allowed := false
	for _, eg := range eng.Store().EffectiveGroups(logic.G(group), now) {
		if a.Allows(eg.Name, op) {
			allowed = true
			break
		}
	}
	if !allowed {
		return s.deny(tr, &req, group, fmt.Sprintf("(%s, %s) ∉ ACL_%s (including inherited groups)", group, op, object), eng.Proof())
	}
	// Temporal condition: tb' ≤ t1 and t6 ≤ te'.
	if memR.certValidity.Begin > req.Requests[0].At || now > memR.certValidity.End {
		return s.deny(tr, &req, group, "certificate validity does not span the request", eng.Proof())
	}

	// Execute.
	tr.begin(StepExecute)
	data, err := s.execute(op, object, req.Requests[0].Payload, group)
	if err != nil {
		return s.deny(tr, &req, group, "execution failed: "+err.Error(), eng.Proof())
	}

	tr.endOK()
	tr.finish(true, "")
	s.audit(audit.Entry{
		At: now, Outcome: audit.Approved, Server: s.name,
		Requestor: req.Requests[0].User, Operation: string(op),
		Object: object, Group: group,
		Reason:     gs.String(),
		RequestID:  tr.id,
		Spans:      tr.spans,
		Derivation: eng.Proof(),
	})
	return Decision{Allowed: true, Group: group, Reason: gs.String(), RequestID: tr.id, Proof: eng.Proof(), Data: data}, nil
}

// idResult carries one identity certificate through the two verification
// phases: the cryptographic phase and the derivation.
type idResult struct {
	cached bool
	hit    cachedCert
	upk    sharedrsa.PublicKey
}

// verifyIdentities runs Step 1: the cryptographic checks (RSA-FDH
// signature per certificate) with cache lookups by fingerprint (fps[i] is
// ids[i]'s), then the logical derivations into the request's fork. Cache
// hits skip both the RSA verification and the re-derivation; validity, the
// issuing CA's key and key revocation are live leaves, re-checked against
// this snapshot at the current time where the cold path checks them, and
// deny with its reasons.
func (s *Server) verifyIdentities(ctx context.Context, st *state, eng *logic.Engine, ids []pki.Signed[pki.Identity], fps []string, now clock.Time) (map[string]sharedrsa.PublicKey, error) {
	results := make([]idResult, len(ids))
	if s.batchVerify.Load() {
		if err := s.verifyIdentitiesBatched(st, ids, fps, results, now); err != nil {
			return nil, err
		}
	} else {
		for i := range ids {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			idc, r := &ids[i], &results[i]
			if e, ok := st.cache.get(fps[i]); ok {
				s.hot.cacheHitIdentity.Inc()
				if !e.validity.Contains(now) {
					return nil, errors.New("identity certificate invalid: " + s.expiredHit(st, fps[i], e, now).Error())
				}
				r.cached, r.hit = true, e
				continue
			}
			s.reg.Counter(MetricCacheMisses, "kind", "identity").Inc()
			caKey, ok := st.anchors.CAKeys[idc.Cert.Issuer]
			if !ok {
				return nil, errors.New("identity certificate from untrusted CA " + idc.Cert.Issuer)
			}
			if err := pki.VerifyIdentity(*idc, caKey, now); err != nil {
				return nil, errors.New("identity certificate invalid: " + err.Error())
			}
			upk, err := idc.Cert.SubjectKey.PublicKey()
			if err != nil {
				return nil, errors.New("identity certificate key malformed: " + err.Error())
			}
			r.upk = upk
		}
	}

	userKeys := make(map[string]sharedrsa.PublicKey, len(ids))
	for i, idc := range ids {
		r := &results[i]
		if r.cached {
			ks, ok := r.hit.formula.(logic.KeySpeaksFor)
			if !ok {
				return nil, errors.New("identity derivation failed: cached formula is not a key binding")
			}
			if reason := identityLeafDenial(eng.Store(), &ids[i], ks, now); reason != "" {
				return nil, errors.New(reason)
			}
			eng.Replay(ks, r.hit.note)
			userKeys[idc.Cert.Subject] = r.hit.subjectKey
			continue
		}
		caBelief, ok := eng.Store().KeyFor(idc.Cert.Issuer, now)
		if !ok {
			return nil, errors.New("no key belief for CA " + idc.Cert.Issuer)
		}
		f, _, err := eng.VerifyCertificate(pki.IdealizeIdentity(idc), caBelief)
		if err != nil {
			return nil, errors.New("identity derivation failed: " + err.Error())
		}
		s.cachePut(st, fps[i], cachedCert{
			formula:    f,
			validity:   clock.NewInterval(idc.Cert.NotBefore, idc.Cert.NotAfter),
			subjectKey: r.upk,
			note:       "cached: identity of " + idc.Cert.Subject + " (fp " + fps[i] + ")",
		})
		userKeys[idc.Cert.Subject] = r.upk
	}
	return userKeys, nil
}

// identityLeafDenial and membershipLeafDenial check, against one
// snapshot's store, what a cached verification does not contain: the
// belief-dependent conditions of the cold derivation, in its order and
// with its reasons (internal/logic's AcceptKeyCertificate /
// AcceptMembershipCertificate under VerifyCertificate), so a decision
// reads the same whether its certificates were cached or not — pinned by
// the cold-rebuild differential test. First the issuer: the cold path
// looks its key belief up with KeyFor, which skips a key revoked as of
// now, and the fingerprint pins the certificate's SignerKey to the anchor
// key it was verified under. Then the subject's own revocation. ""
// means every leaf holds.
func identityLeafDenial(store *logic.BeliefStore, idc *pki.Signed[pki.Identity], ks logic.KeySpeaksFor, now clock.Time) string {
	if store.KeyRevoked(logic.KeyID(idc.SignerKey), now) {
		return "no key belief for CA " + idc.Cert.Issuer
	}
	if store.KeyRevoked(ks.K, now) {
		return fmt.Sprintf("identity derivation failed: verify certificate: key certificate: key %s revoked as of %s", ks.K, now)
	}
	return ""
}

func membershipLeafDenial(store *logic.BeliefStore, signerKey string, mem logic.MemberOf, now clock.Time) string {
	if store.KeyRevoked(logic.KeyID(signerKey), now) {
		return "no key belief for AA"
	}
	if store.Revoked(mem.Who, mem.G, now) {
		return fmt.Sprintf("membership derivation failed: verify certificate: attribute certificate: membership of %s in %s revoked as of %s",
			mem.Who, mem.G.Name, now)
	}
	return ""
}

// membershipResult is the outcome of Step 2.
type membershipResult struct {
	group        string
	mem          logic.MemberOf
	memStep      int
	boundKey     map[string]string
	certValidity clock.Interval
}

// verifyMembership runs Step 2 for the attribute certificate — threshold
// (A38 path) or single-subject (A35 path) — consulting the verified-
// certificate cache by the certificate's fingerprint fp. On a hit,
// validity, the AA's key and membership revocation are live leaves
// re-checked against this snapshot.
func (s *Server) verifyMembership(st *state, eng *logic.Engine, req *AccessRequest, fp string, now clock.Time) (membershipResult, error) {
	if req.Delegated {
		return s.verifyDelegatedMembership(st, eng, req, fp, now)
	}
	var (
		out       membershipResult
		ideal     logic.Signed
		issuer    string
		issuedTo  string
		signerKey = req.Threshold.SignerKey
	)
	if req.SingleSubject {
		signerKey = req.Single.SignerKey
		c := req.Single.Cert
		out.group, issuer, issuedTo = c.Group, c.Issuer, c.Subject.Name
		out.boundKey = map[string]string{c.Subject.Name: c.Subject.KeyID}
		out.certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
	} else {
		c := req.Threshold.Cert
		out.group, issuer = c.Group, c.Issuer
		issuedTo = fmt.Sprintf("CP(%d,%d)", c.M, len(c.Subjects))
		out.boundKey = make(map[string]string, len(c.Subjects))
		for _, sub := range c.Subjects {
			out.boundKey[sub.Name] = sub.KeyID
		}
		out.certValidity = clock.NewInterval(c.NotBefore, c.NotAfter)
	}
	if issuer != st.anchors.AAName {
		return out, fmt.Errorf("%s certificate from unexpected issuer %s", certKind(req), issuer)
	}

	if e, ok := st.cache.get(fp); ok {
		s.hot.cacheHitAttribute.Inc()
		mem, isMem := e.formula.(logic.MemberOf)
		if !isMem {
			return out, errors.New("membership derivation produced unexpected formula")
		}
		if !e.validity.Contains(now) {
			return out, fmt.Errorf("%s certificate invalid: %v", certKind(req), s.expiredHit(st, fp, e, now))
		}
		if reason := membershipLeafDenial(eng.Store(), signerKey, mem, now); reason != "" {
			return out, errors.New(reason)
		}
		out.mem = mem
		out.memStep = eng.Replay(mem, e.note)
		return out, nil
	}
	s.reg.Counter(MetricCacheMisses, "kind", "attribute").Inc()

	if req.SingleSubject {
		if err := pki.VerifyAttribute(req.Single, st.anchors.AAKey, now); err != nil {
			return out, errors.New("attribute certificate invalid: " + err.Error())
		}
		ideal = pki.IdealizeAttribute(req.Single)
	} else {
		if err := pki.VerifyThresholdAttribute(req.Threshold, st.anchors.AAKey, now); err != nil {
			return out, errors.New("threshold attribute certificate invalid: " + err.Error())
		}
		ideal = pki.IdealizeThresholdAttribute(req.Threshold)
	}
	aaBelief, ok := eng.Store().KeyFor(st.anchors.AAName, now)
	if !ok {
		return out, errors.New("no key belief for AA")
	}
	memF, memStep, err := eng.VerifyCertificate(ideal, aaBelief)
	if err != nil {
		return out, errors.New("membership derivation failed: " + err.Error())
	}
	mem, ok := memF.(logic.MemberOf)
	if !ok {
		return out, errors.New("membership derivation produced unexpected formula")
	}
	out.mem, out.memStep = mem, memStep
	s.cachePut(st, fp, cachedCert{
		formula:  mem,
		validity: out.certValidity,
		note:     "cached: membership of " + issuedTo + " in " + out.group + " (fp " + fp + ")",
	})
	return out, nil
}

// verifyDelegatedMembership runs Step 2 for a delegation-backed request:
// the leaf certificate (signature cached by fingerprint fp; its validity
// re-checked on a hit) identifies the subject, and the membership is
// derived from the believed root-anchored composed chain of this
// snapshot, never from the cache — the op must be inside the attenuated
// permission set, the composed validity interval must cover now, and
// every chain link (subject and each delegator on the path) must be
// unrevoked.
func (s *Server) verifyDelegatedMembership(st *state, eng *logic.Engine, req *AccessRequest, fp string, now clock.Time) (membershipResult, error) {
	var out membershipResult
	c := req.Delegation.Cert
	out.group = c.Group
	out.boundKey = map[string]string{c.Subject.Name: c.Subject.KeyID}
	if c.Issuer != st.anchors.AAName {
		return out, fmt.Errorf("delegation certificate from unexpected issuer %s", c.Issuer)
	}
	if e, ok := st.cache.get(fp); ok {
		s.hot.cacheHitDelegation.Inc()
		if !e.validity.Contains(now) {
			return out, fmt.Errorf("delegation certificate invalid: %v", s.expiredHit(st, fp, e, now))
		}
	} else {
		s.reg.Counter(MetricCacheMisses, "kind", "delegation").Inc()
		if err := pki.VerifyDelegation(req.Delegation, st.anchors.AAKey, now); err != nil {
			return out, errors.New("delegation certificate invalid: " + err.Error())
		}
		s.cachePut(st, fp, cachedCert{
			formula:  pki.DelegationLinkFormula(req.Delegation),
			validity: clock.NewInterval(c.NotBefore, c.NotAfter),
			note:     "cached: delegation leaf for " + c.Subject.Name + " in " + c.Group + " (fp " + fp + ")",
		})
	}
	g := logic.G(c.Group)
	d, dStep, ok := eng.Store().DelegationFor(c.Subject.Name, g, now)
	if !ok {
		// Distinguish a revoked chain link from no chain at all: the former
		// is the per-link revocation denial the subsystem counts.
		for _, e := range eng.Store().Delegations() {
			dd := e.F.(logic.Delegates)
			if dd.To.Name == c.Subject.Name && dd.G == g && dd.T.Covers(now) {
				s.reg.Counter(delegation.MetricLinkRevocationDenials).Inc()
				return out, fmt.Errorf("delegation derivation failed: a chain link for %s in %s is revoked as of %s",
					c.Subject.Name, c.Group, now)
			}
		}
		return out, fmt.Errorf("delegation derivation failed: no believed chain for %s in %s valid at %s",
			c.Subject.Name, c.Group, now)
	}
	mem, err := logic.DelegationMember(d, string(req.Requests[0].Op), now)
	if err != nil {
		return out, errors.New("delegation derivation failed: " + err.Error())
	}
	memStep := eng.Proof().Append(logic.RuleDelegationMember, []int{dStep}, mem, now,
		fmt.Sprintf("membership of %s in %s derived from delegation chain [%s]", c.Subject.Name, c.Group, d.Path))
	eng.Store().Add(mem, now, memStep)
	out.mem, out.memStep = mem, memStep
	out.certValidity = clock.NewInterval(d.T.Time(), d.T.End())
	return out, nil
}

// certKind names the membership certificate kind in denial reasons, as
// the cold verification of each kind words it.
func certKind(req *AccessRequest) string {
	if req.Delegated {
		return "delegation"
	}
	if req.SingleSubject {
		return "attribute"
	}
	return "threshold attribute"
}

// cosignItem is one co-signer's request component prepared for the
// signature check.
type cosignItem struct {
	user string
	body []byte
	sig  sharedrsa.Signature
	upk  sharedrsa.PublicKey
}

// verifyCosigners runs Step 3: the per-signer structural checks
// (agreement on the request, certificate binding), the RSA signature
// verifications (the first failing signer denies), and the logical
// derivations into the request's fork.
func (s *Server) verifyCosigners(ctx context.Context, eng *logic.Engine, req *AccessRequest, op acl.Permission, object string, userKeys map[string]sharedrsa.PublicKey, boundKey map[string]string, now clock.Time) ([]logic.Says, []int, error) {
	items := make([]cosignItem, len(req.Requests))
	for i, r := range req.Requests {
		if r.Op != op || r.Object != object {
			return nil, nil, errors.New("co-signers disagree on the request")
		}
		upk, ok := userKeys[r.User]
		if !ok {
			return nil, nil, fmt.Errorf("%s: %v", r.User, ErrMissingIdentity)
		}
		want, ok := boundKey[r.User]
		if !ok {
			return nil, nil, errors.New(r.User + " is not a subject of the threshold certificate")
		}
		if upk.KeyID() != want {
			return nil, nil, errors.New(r.User + "'s identity key differs from the certificate binding")
		}
		sigVal, ok := sharedrsa.ParseHex(new(big.Int), r.SigS)
		if !ok {
			return nil, nil, errors.New(r.User + ": malformed signature")
		}
		items[i] = cosignItem{user: r.User, body: requestBody(r), sig: sharedrsa.Signature{S: sigVal}, upk: upk}
	}

	if err := verifyCosignatures(ctx, items); err != nil {
		return nil, nil, err
	}

	var utterances []logic.Says
	var utterSteps []int
	for i, r := range req.Requests {
		// Idealize: ⟦User says_t ("op", object, payload-digest)⟧_Ku⁻¹.
		content := idealContent(op, object, r.Payload)
		ideal := logic.Sign(logic.AsMessage(logic.Says{
			Who: logic.P(r.User),
			T:   logic.At(r.At),
			X:   content,
		}), logic.KeyID(items[i].upk.KeyID()))
		keyBelief, ok := eng.Store().KeyFor(r.User, now)
		if !ok {
			return nil, nil, errors.New("no derived key belief for " + r.User)
		}
		says, step, err := eng.VerifySignedRequest(ideal, keyBelief)
		if err != nil {
			return nil, nil, errors.New("request derivation failed: " + err.Error())
		}
		utterances = append(utterances, says)
		utterSteps = append(utterSteps, step)
	}
	return utterances, utterSteps, nil
}

// verifyCosignatures checks each co-signer's RSA-FDH signature in request
// order, in the caller's goroutine: the first failing signer is the
// denial, and a context canceled between two checks surfaces as ctx.Err
// (an abort, not a denial).
func verifyCosignatures(ctx context.Context, items []cosignItem) error {
	for i := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sharedrsa.Verify(items[i].body, items[i].upk, items[i].sig); err != nil {
			return errors.New(items[i].user + ": request signature invalid")
		}
	}
	return nil
}

// idealContent renders the request content as the logic message of the
// protocol ("write" O), extended with a payload digest when present.
func idealContent(op acl.Permission, object string, payload []byte) logic.Message {
	items := []logic.Message{
		logic.Const{Value: string(op)},
		logic.Const{Value: object},
	}
	if len(payload) > 0 {
		items = append(items, logic.Const{Value: fmt.Sprintf("payload#%x", fold(payload))})
	}
	return logic.NewTuple(items...)
}

// fold is a tiny stable digest for idealized payload references (the real
// integrity guarantee is the RSA signature over the full payload).
func fold(b []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
