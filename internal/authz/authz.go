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
// Authorize is lock-free and starts no goroutine. One decider decides
// every request, the residual decider (residual.go): it splices the
// snapshot's recorded derivation for the requesting group onto the
// request's proof and checks the request-variable leaves, and it derives
// into a per-request fork of the snapshot's engine only the certificates
// not yet memoized in the key epoch's fingerprint-keyed cache
// (snapshot.go). The co-signer signatures are verified in the caller's
// goroutine. Steps 1–3 are independent per request given a fixed belief
// set, which is exactly what makes concurrent requests safe. The 4-step
// replay of the whole derivation remains only as the oracle the decider is
// compared with (SetResidualsEnabled).
package authz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// ErrDenied indicates the request failed a protocol step.
var ErrDenied = errors.New("authz: access denied")

// Denial reasons, quoted in a Decision's Reason (and so in the audit log).
const (
	// notFresh ends the reason for a request timestamp outside the
	// freshness window.
	notFresh = "authz: request not fresh"
	// missingIdentity ends the reason for a co-signer without an
	// identity certificate in the request.
	missingIdentity = "authz: co-signer identity certificate missing"
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

// SignRequest produces a signed request component for a user key pair.
// The signature is over the component's signed form (appendRequestBody,
// encode.go): the "request" kind tag, then its user, at, op, object and
// payload, length-prefixed like every certificate's signed form, so no
// two components and no certificate share one. A signature that fails
// its check before release is sharedrsa.ErrSignFault.
func SignRequest(user string, at clock.Time, op acl.Permission, object string, payload []byte, kp *pki.KeyPair) (UserRequest, error) {
	r := UserRequest{User: user, At: at, Op: op, Object: object, Payload: payload}
	sig, err := kp.Sign(appendRequestBody(nil, &r))
	if err != nil {
		return UserRequest{}, fmt.Errorf("authz: sign request of %s: %w", user, err)
	}
	r.SigS = sharedrsa.FormatHex(sig.S)
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
	// Epoch and Watermark are the version of the belief snapshot the
	// request was decided on (Snapshot's): a follower stamps its reply
	// with them, and a mutation published while the request ran does not
	// move them.
	Epoch, Watermark uint64
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
	// noResidual, when set, decides every request on the 4-step replay
	// instead of the residual decider (SetResidualsEnabled).
	noResidual atomic.Bool
	// batchVerify enables k-way batched verification of cache-miss
	// identity certificates (SetBatchVerify).
	batchVerify atomic.Bool
	// noPool, when set, disables pooling of the request scratch
	// (SetPooling).
	noPool atomic.Bool

	// mu serializes belief-mutating operations; Authorize never takes it.
	mu sync.Mutex
	// state is the current immutable belief snapshot (snapshot.go).
	state atomic.Pointer[state]
	// journal, when set, durably records every belief mutation before it
	// is acknowledged, plus audit entries (journal.go). Stored atomically
	// because the lock-free Authorize path writes audit records.
	journal atomic.Pointer[journalBox]
	// replica is set by NewReplica: a follower decides a write or modify
	// exactly as the writer would, but only the writer performs it, so
	// the follower's objects stay the writer's (execute).
	replica bool
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
	s.state.Store(newState(anchors, freshEngine(name, clk, anchors), 0, 0, newCertCache(), nil))
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

// Objects exposes the server's object store.
func (s *Server) Objects() *acl.Store { return s.objects }

// decision is one request's evaluation on either decider: what its
// denials, aborts and approval are recorded against.
type decision struct {
	s   *Server
	ctx context.Context
	// r is the request's first component (zero while none is known): the
	// requestor, operation and object the outcome is recorded against. It
	// is a copy, not a pointer into the request, so that the proof leaving
	// through d does not take the request off the caller's stack.
	r   UserRequest
	tr  *reqTrace
	now clock.Time
	// epoch and watermark version the snapshot the request is decided
	// on; every outcome carries them.
	epoch, watermark uint64
	// proof is the derivation every outcome carries: the proof of the
	// request's engine fork on the replay and on the residual decider's
	// cold arm, a clone of the snapshot's on its warm arm, and nil before
	// either decider has set it.
	proof *logic.Proof
}

// deny closes the trace's current span as denied, records the denial in
// the metrics and the audit log (step-labeled), and returns it.
func (d *decision) deny(group, reason string) (Decision, error) {
	tr := d.tr
	step := tr.step
	if step == "" {
		step = StepFreshness
	}
	tr.end("denied", reason)
	tr.finish(false, step)
	// The entry keeps the proof, not its text: the log renders it when
	// read (a nil *logic.Proof must not become a non-nil Stringer).
	var derivation fmt.Stringer
	if d.proof != nil {
		derivation = d.proof
	}
	d.s.audit(audit.Entry{
		At: d.s.clk.Now(), Outcome: audit.Denied, Server: d.s.name,
		Requestor: d.r.User, Operation: string(d.r.Op), Object: d.r.Object,
		Group: group, Reason: reason,
		RequestID: tr.id, Spans: tr.spans, Derivation: derivation,
	})
	return Decision{Allowed: false, Group: group, Reason: reason, DeniedStep: step, RequestID: tr.id, Proof: d.proof,
			Epoch: d.epoch, Watermark: d.watermark},
		fmt.Errorf("%w: %s", ErrDenied, reason)
}

// abort closes the trace for a request whose context was canceled: the
// outcome is neither an approval nor a protocol denial, so it is counted
// separately and not written to the audit log.
func (d *decision) abort(err error) (Decision, error) {
	tr := d.tr
	step := tr.step
	if step == "" {
		step = StepFreshness
	}
	tr.end("canceled", err.Error())
	tr.finishCanceled(step)
	return Decision{Allowed: false, Reason: err.Error(), DeniedStep: step, RequestID: tr.id,
			Epoch: d.epoch, Watermark: d.watermark},
		fmt.Errorf("authz: request aborted at %s: %w", step, err)
}

// fail ends the request on err: an abort when the context was canceled,
// a denial with err's text otherwise.
func (d *decision) fail(group string, err error) (Decision, error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return d.abort(err)
	}
	return d.deny(group, err.Error())
}

// Authorize runs the full authorization protocol on a joint access request
// and, if approved, performs the operation on the object store. The
// evaluation is traced: each protocol step becomes a timed span in the
// audit entry, correlated by the decision's RequestID.
//
// Authorize decides every request on the residual decider (residual.go).
// A request whose certificates are all in the key epoch's
// verified-certificate cache takes its warm arm: the snapshot-invariant
// proof steps recorded once per (snapshot, group) are spliced in, and only
// the request-variable leaf checks run. Any other request takes its cold
// arm: Steps 1–2 verify and derive the certificates in a fork of the
// snapshot's engine and cache them, and the same residue is spliced after
// them. Both arms then share Step 3's signer checks and signature
// verification, the statement-25 conclusion, Step 4, the operation and the
// approval's audit entry — and with the 4-step replay, the oracle
// SetResidualsEnabled(false) selects, everything but Steps 3–4's
// derivation.
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
	// on return.
	sc := s.getScratch()
	defer s.putScratch(sc)
	sc.fingerprint(&req)
	oracle := s.noResidual.Load()
	if !oracle {
		s.hot.residualHits.Inc()
	}
	d := decision{s: s, ctx: ctx, tr: s.beginTrace(), now: s.clk.Now(), epoch: st.epoch, watermark: st.watermark}
	d.tr.begin(StepFreshness)
	if err := ctx.Err(); err != nil {
		return d.abort(err)
	}
	if len(req.Requests) == 0 {
		return d.deny("", "no signed request components")
	}
	d.r = req.Requests[0]
	if oracle {
		return s.replay(&d, st, sc, &req)
	}
	return s.decideResidual(&d, st, sc, &req)
}

// verifyCerts forks st's engine, whose proof becomes d's, checks
// freshness, and runs Steps 1–2 into the fork as the protocol derives
// them: each certificate is verified and derived, or its cached
// verification replayed, and cached when new. On failure it returns the
// group the denial is recorded against and the error, for d.fail.
func (s *Server) verifyCerts(d *decision, st *state, sc *reqScratch, req *AccessRequest) (*logic.Engine, membershipResult, error) {
	eng := st.eng.Fork()
	d.proof = eng.Proof()
	if reason := freshnessDenial(st.anchors.FreshnessWindow, req.Requests, d.now); reason != "" {
		return nil, membershipResult{}, errors.New(reason)
	}

	// ---- Step 1: verify the signing keys (messages 1-1, 1-2). ----
	d.tr.begin(StepCerts)
	if err := s.verifyIdentities(d.ctx, st, eng, sc, req.Identities, d.now); err != nil {
		return nil, membershipResult{}, err
	}

	// ---- Step 2: establish group membership (message 1-3). ----
	d.tr.begin(StepThreshold)
	if err := d.ctx.Err(); err != nil {
		return nil, membershipResult{}, err
	}
	memR, err := s.verifyMembership(st, eng, req, sc.memFP, d.now)
	return eng, memR, err
}

// replay decides req by the protocol's 4-step derivation in a fork of the
// snapshot's engine: each certificate is verified, or its cached
// verification re-derived, and each conclusion is derived from the
// beliefs. It is the oracle the residual decider is compared with, and
// nothing serves it but SetResidualsEnabled(false).
func (s *Server) replay(d *decision, st *state, sc *reqScratch, req *AccessRequest) (Decision, error) {
	eng, memR, err := s.verifyCerts(d, st, sc, req)
	if err != nil {
		return d.fail(memR.group, err)
	}
	group := memR.group

	// ---- Step 3: verify the signed request (message 1-4) and conclude
	// "G says op" (statement 25). ----
	d.tr.begin(StepCosign)
	if err := sc.verifySigners(d.ctx, req); err != nil {
		return d.fail(group, err)
	}
	utterances, utterSteps, err := deriveUtterances(eng, sc, req, d.now)
	if err != nil {
		return d.deny(group, err.Error())
	}
	gs, _, err := eng.ConcludeGroupSays(memR.mem, memR.memStep, utterances, utterSteps)
	if err != nil {
		return d.deny(group, "threshold not met: "+err.Error())
	}

	// ---- Step 4 against the believed relation closure. ----
	return d.approve(gs, eng.Store().EffectiveGroups(logic.G(group), d.now), memR.certValidity, d.proof)
}

// freshnessDenial applies the freshness window w (axiom A21,
// Stubblebine–Wright style) at now: the denial reason for the first
// component stamped outside it, or "" when all are fresh or w is 0.
func freshnessDenial(w int64, reqs []UserRequest, now clock.Time) string {
	if w <= 0 {
		return ""
	}
	for _, r := range reqs {
		delta := int64(now) - int64(r.At)
		if delta < 0 {
			delta = -delta
		}
		if delta > w {
			return fmt.Sprintf("request of %s at %s outside freshness window (now %s): %s",
				r.User, r.At, now, notFresh)
		}
	}
	return ""
}

// approve decides what follows statement 25 on either decider, given the
// relation closure of gs's group that the decider computed: Step 4 — the
// live ACL (the only place the object enters), on which the group or any
// group it reaches may appear, and the temporal condition tb' ≤ t1 ∧
// t6 ≤ te' over the membership's validity — then the operation and the
// approval's audit entry, whose derivation renders when the entry is read.
func (d *decision) approve(gs logic.GroupSays, closure []logic.Group, validity clock.Interval, derivation fmt.Stringer) (Decision, error) {
	s, r := d.s, &d.r
	group := gs.G.Name // statement 25 speaks for the requesting group
	d.tr.begin(StepACL)
	if err := d.ctx.Err(); err != nil {
		return d.abort(err)
	}
	a, err := s.objects.ACLOf(r.Object)
	if err != nil {
		return d.deny(group, "object lookup: "+err.Error())
	}
	if !slices.ContainsFunc(closure, func(g logic.Group) bool { return a.Allows(g.Name, r.Op) }) {
		return d.deny(group, fmt.Sprintf("(%s, %s) ∉ ACL_%s (including inherited groups)", group, r.Op, r.Object))
	}
	if validity.Begin > r.At || d.now > validity.End {
		return d.deny(group, "certificate validity does not span the request")
	}

	d.tr.begin(StepExecute)
	data, err := s.execute(r.Op, r.Object, r.Payload, group)
	if err != nil {
		return d.deny(group, "execution failed: "+err.Error())
	}

	d.tr.endOK()
	d.tr.finish(true, "")
	reason := gs.String()
	s.audit(audit.Entry{
		At: d.now, Outcome: audit.Approved, Server: s.name,
		Requestor: r.User, Operation: string(r.Op),
		Object: r.Object, Group: group,
		Reason:     reason,
		RequestID:  d.tr.id,
		Spans:      d.tr.spans,
		Derivation: derivation,
	})
	return Decision{Allowed: true, Group: group, Reason: reason, RequestID: d.tr.id, Proof: d.proof, Data: data,
		Epoch: d.epoch, Watermark: d.watermark}, nil
}

// execute performs the approved operation on the object store. A
// replica reads, and checks a modify's payload as the writer does, but
// changes nothing: a write it performed would never reach the writer,
// and the next snapshot would silently revert it.
func (s *Server) execute(op acl.Permission, object string, payload []byte, group string) ([]byte, error) {
	switch op {
	case acl.Read:
		return s.objects.Read(object)
	case acl.Write:
		if s.replica {
			return nil, nil
		}
		return nil, s.objects.Write(object, payload, group)
	case acl.Modify:
		var entries []acl.Entry
		if err := json.Unmarshal(payload, &entries); err != nil {
			return nil, err
		}
		newACL, err := acl.NewACL(entries...)
		if err != nil || s.replica {
			return nil, err
		}
		return nil, s.objects.SetACL(object, newACL, group)
	default:
		return nil, fmt.Errorf("unsupported operation %q", op)
	}
}

// idResult carries one identity certificate through the two verification
// phases: the cryptographic phase and the derivation.
type idResult struct {
	cached bool
	hit    cachedCert
	upk    sharedrsa.PublicKey
}

// verifyIdentities runs Step 1: the cryptographic checks (RSA-FDH
// signature per certificate) with cache lookups by fingerprint
// (sc.idFPs[i] is ids[i]'s), then the logical derivations into the
// request's fork, leaving each certificate's verified key in sc.keys.
// Cache hits skip both the RSA verification and the re-derivation;
// validity, the issuing CA's key and key revocation are live leaves,
// re-checked against this snapshot at the current time where the cold
// path checks them, and deny with its reasons.
func (s *Server) verifyIdentities(ctx context.Context, st *state, eng *logic.Engine, sc *reqScratch, ids []pki.Signed[pki.Identity], now clock.Time) error {
	fps := sc.idFPs
	results := make([]idResult, len(ids))
	if s.batchVerify.Load() {
		if err := s.verifyIdentitiesBatched(st, ids, fps, results, now); err != nil {
			return err
		}
	} else {
		for i := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			idc, r := &ids[i], &results[i]
			if e, ok := st.cache.get(fps[i]); ok {
				s.hot.cacheHitIdentity.Inc()
				if !e.validity.Contains(now) {
					return errors.New("identity certificate invalid: " + s.expiredHit(st, fps[i], e, now).Error())
				}
				r.cached, r.hit = true, e
				continue
			}
			s.reg.Counter(MetricCacheMisses, "kind", "identity").Inc()
			caKey, ok := st.anchors.CAKeys[idc.Cert.Issuer]
			if !ok {
				return errors.New("identity certificate from untrusted CA " + idc.Cert.Issuer)
			}
			if err := pki.VerifyIdentity(*idc, caKey, now); err != nil {
				return errors.New("identity certificate invalid: " + err.Error())
			}
			upk, err := subjectKey(idc)
			if err != nil {
				return err
			}
			r.upk = upk
		}
	}

	keys := grow(sc.keys, len(ids))
	sc.keys = keys
	for i := range ids {
		idc, r := &ids[i], &results[i]
		if r.cached {
			ks, ok := r.hit.formula.(logic.KeySpeaksFor)
			if !ok {
				return errors.New("identity derivation failed: cached formula is not a key binding")
			}
			if reason := identityLeafDenial(eng.Store(), idc, r.hit.formula, now); reason != "" {
				return errors.New(reason)
			}
			eng.Replay(ks, r.hit.note)
			keys[i] = signerKey{upk: r.hit.subjectKey, ks: ks}
			continue
		}
		caBelief, ok := eng.Store().KeyFor(idc.Cert.Issuer, now)
		if !ok {
			return errors.New("no key belief for CA " + idc.Cert.Issuer)
		}
		ideal := pki.IdealizeIdentity(*idc)
		f, _, err := eng.VerifyCertificate(ideal, caBelief)
		if err != nil {
			// Failed only on the subject key's revocation, a live leaf:
			// cached like a pass, as verifyMembership does.
			if ks, ok := certBody(ideal).(logic.KeySpeaksFor); ok && errors.Is(err, logic.ErrLeafRevoked) {
				s.cachePut(st, fps[i], identityEntry(idc, ks, r.upk, fps[i]))
			}
			return errors.New("identity derivation failed: " + err.Error())
		}
		ks, ok := f.(logic.KeySpeaksFor)
		if !ok {
			return errors.New("identity derivation failed: certificate formula is not a key binding")
		}
		s.cachePut(st, fps[i], identityEntry(idc, ks, r.upk, fps[i]))
		keys[i] = signerKey{upk: r.upk, ks: ks}
	}
	return nil
}

// identityEntry is the cached verification of identity certificate idc.
func identityEntry(idc *pki.Signed[pki.Identity], ks logic.KeySpeaksFor, upk sharedrsa.PublicKey, fp string) cachedCert {
	return cachedCert{
		formula:    ks,
		validity:   clock.NewInterval(idc.Cert.NotBefore, idc.Cert.NotAfter),
		subjectKey: upk,
		note:       "cached: identity of " + idc.Cert.Subject + " (fp " + fp + ")",
	}
}

// subjectKey parses the subject key of an identity certificate whose
// signature verified, and checks that the certificate's KeyID is that
// key's ID: the ID the certificate idealizes to (K ⇒ P), and the one
// Step 3 compares with the membership certificate's binding on either
// decider. Both arms of the Step-1 cache miss (sequential and batched)
// call it, so no cached verification carries a key its ID does not name.
func subjectKey(idc *pki.Signed[pki.Identity]) (sharedrsa.PublicKey, error) {
	upk, err := idc.Cert.SubjectKey.PublicKey()
	if err == nil && upk.KeyID() != idc.Cert.KeyID {
		err = fmt.Errorf("%w: key ID %s does not name the subject key", pki.ErrMalformed, idc.Cert.KeyID)
	}
	if err != nil {
		return sharedrsa.PublicKey{}, errors.New("identity certificate key malformed: " + err.Error())
	}
	return upk, nil
}

// identityLeafDenial and membershipLeafDenial check, against one
// snapshot's store, what a cached verification of a certificate
// concluding f does not contain: the belief-dependent conditions of its
// cold derivation, in that order and with its reasons, so a decision
// reads the same whether its certificates were cached or not — pinned by
// the cold-rebuild differential test. First the issuer: the cold path
// looks its key belief up with KeyFor, which skips a key revoked at now,
// and the fingerprint pins the certificate's signer key to the anchor
// key it was verified under. Then the subject's own revocation, the
// engine's refusal itself. "" means every leaf holds.
func identityLeafDenial(store *logic.BeliefStore, idc *pki.Signed[pki.Identity], f logic.Formula, now clock.Time) string {
	if store.KeyRevoked(logic.KeyID(idc.SignerKey), now) {
		return "no key belief for CA " + idc.Cert.Issuer
	}
	if err := logic.LeafRefusal(store, f, now); err != nil {
		return "identity derivation failed: " + err.Error()
	}
	return ""
}

func membershipLeafDenial(store *logic.BeliefStore, signerKey string, f logic.Formula, now clock.Time) string {
	if store.KeyRevoked(logic.KeyID(signerKey), now) {
		return "no key belief for AA"
	}
	if err := logic.LeafRefusal(store, f, now); err != nil {
		return "membership derivation failed: " + err.Error()
	}
	return ""
}

// memCert is what a request's membership certificate states about itself,
// read before anything is verified: the requesting group, the issuer, the
// key it claims to be signed with, and its validity interval.
type memCert struct {
	group, issuer, signerKey string
	validity                 clock.Interval
}

// membershipCertOf reads the request's membership certificate: the
// threshold certificate (A38 path), the single-subject one (A35 path), or
// a delegated request's leaf certificate, whose validity Step 2 replaces
// with the composed chain's.
func membershipCertOf(req *AccessRequest) memCert {
	switch {
	case req.Delegated:
		c := req.Delegation.Cert
		return memCert{c.Group, c.Issuer, req.Delegation.SignerKey, clock.NewInterval(c.NotBefore, c.NotAfter)}
	case req.SingleSubject:
		c := req.Single.Cert
		return memCert{c.Group, c.Issuer, req.Single.SignerKey, clock.NewInterval(c.NotBefore, c.NotAfter)}
	default:
		c := req.Threshold.Cert
		return memCert{c.Group, c.Issuer, req.Threshold.SignerKey, clock.NewInterval(c.NotBefore, c.NotAfter)}
	}
}

// boundKeyID returns the key ID the request's membership certificate binds
// to the named subject (the last entry naming it), and whether it names
// the subject at all.
func boundKeyID(req *AccessRequest, user string) (keyID string, ok bool) {
	switch {
	case req.Delegated:
		sub := req.Delegation.Cert.Subject
		return sub.KeyID, sub.Name == user
	case req.SingleSubject:
		sub := req.Single.Cert.Subject
		return sub.KeyID, sub.Name == user
	}
	for _, sub := range req.Threshold.Cert.Subjects {
		if sub.Name == user {
			keyID, ok = sub.KeyID, true
		}
	}
	return keyID, ok
}

// membershipResult is the outcome of Step 2.
type membershipResult struct {
	group        string
	mem          logic.MemberOf
	memStep      int
	certValidity clock.Interval
}

// verifyMembership runs Step 2 for the attribute certificate — threshold
// (A38 path) or single-subject (A35 path) — consulting the verified-
// certificate cache by the certificate's fingerprint fp. On a hit,
// validity, the AA's key and membership revocation are live leaves
// re-checked against this snapshot.
func (s *Server) verifyMembership(st *state, eng *logic.Engine, req *AccessRequest, fp string, now clock.Time) (membershipResult, error) {
	mc := membershipCertOf(req)
	out := membershipResult{group: mc.group, certValidity: mc.validity}
	if mc.issuer != st.anchors.AAName {
		return out, fmt.Errorf("%s certificate from unexpected issuer %s", certKind(req), mc.issuer)
	}
	if req.Delegated {
		return s.verifyDelegatedMembership(st, eng, req, fp, now, out)
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
		if reason := membershipLeafDenial(eng.Store(), mc.signerKey, e.formula, now); reason != "" {
			return out, errors.New(reason)
		}
		out.mem = mem
		out.memStep = eng.Replay(mem, e.note)
		return out, nil
	}
	s.reg.Counter(MetricCacheMisses, "kind", "attribute").Inc()

	var (
		ideal    logic.Signed
		issuedTo string
	)
	if req.SingleSubject {
		if err := pki.VerifyAttribute(req.Single, st.anchors.AAKey, now); err != nil {
			return out, errors.New("attribute certificate invalid: " + err.Error())
		}
		ideal, issuedTo = pki.IdealizeAttribute(req.Single), req.Single.Cert.Subject.Name
	} else {
		if err := pki.VerifyThresholdAttribute(req.Threshold, st.anchors.AAKey, now); err != nil {
			return out, errors.New("threshold attribute certificate invalid: " + err.Error())
		}
		c := req.Threshold.Cert
		ideal, issuedTo = pki.IdealizeThresholdAttribute(req.Threshold), fmt.Sprintf("CP(%d,%d)", c.M, len(c.Subjects))
	}
	aaBelief, ok := eng.Store().KeyFor(st.anchors.AAName, now)
	if !ok {
		return out, errors.New("no key belief for AA")
	}
	memF, memStep, err := eng.VerifyCertificate(ideal, aaBelief)
	if err != nil {
		// A certificate whose derivation failed only on its membership's
		// revocation, a live leaf, is cached like one that passed: a
		// revocation holds for the rest of the epoch, so every hit
		// denies it with this very reason (membershipLeafDenial) instead of
		// re-verifying its signature.
		if mem, ok := certBody(ideal).(logic.MemberOf); ok && errors.Is(err, logic.ErrLeafRevoked) {
			s.cachePut(st, fp, cachedCert{formula: mem, validity: out.certValidity, note: membershipNote(issuedTo, out.group, fp)})
		}
		return out, errors.New("membership derivation failed: " + err.Error())
	}
	mem, ok := memF.(logic.MemberOf)
	if !ok {
		return out, errors.New("membership derivation produced unexpected formula")
	}
	out.mem, out.memStep = mem, memStep
	s.cachePut(st, fp, cachedCert{formula: mem, validity: out.certValidity, note: membershipNote(issuedTo, out.group, fp)})
	return out, nil
}

// membershipNote is a cached membership verification's proof note.
func membershipNote(issuedTo, group, fp string) string {
	return "cached: membership of " + issuedTo + " in " + group + " (fp " + fp + ")"
}

// verifyDelegatedMembership runs Step 2 for a delegation-backed request
// (out holds what verifyMembership read off the leaf): the leaf
// certificate (signature cached by fingerprint fp; its validity re-checked
// on a hit) identifies the subject, and the membership is derived from the
// believed root-anchored composed chain of this snapshot, never from the
// cache — the op must be inside the attenuated permission set, the
// composed validity interval must cover now, and every chain link
// (subject and each delegator on the path) must be unrevoked.
func (s *Server) verifyDelegatedMembership(st *state, eng *logic.Engine, req *AccessRequest, fp string, now clock.Time, out membershipResult) (membershipResult, error) {
	c := req.Delegation.Cert
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
			validity: out.certValidity,
			note:     "cached: delegation leaf for " + c.Subject.Name + " in " + c.Group + " (fp " + fp + ")",
		})
	}
	g := logic.G(c.Group)
	d, dStep, ok := eng.Store().DelegationFor(c.Subject.Name, g, now)
	if !ok {
		// No chain: a believed delegation to the subject covering now has a revoked link.
		revoked := slices.ContainsFunc(eng.Store().Delegations(), func(e logic.Entry) bool {
			dd := e.F.(logic.Delegates)
			return dd.To.Name == c.Subject.Name && dd.G == g && dd.T.Covers(now)
		})
		return out, errors.New(s.chainDenial(c.Subject.Name, c.Group, revoked, now))
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

// chainDenial is a delegated request's Step-2 denial on either decider
// when no believed chain is valid at now, counting a revoked link.
func (s *Server) chainDenial(subject, group string, linkRevoked bool, now clock.Time) string {
	if linkRevoked {
		s.reg.Counter(delegation.MetricLinkRevocationDenials).Inc()
		return fmt.Sprintf("delegation derivation failed: a chain link for %s in %s is revoked as of %s", subject, group, now)
	}
	return fmt.Sprintf("delegation derivation failed: no believed chain for %s in %s valid at %s", subject, group, now)
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

// signerKey is one identity certificate's Step-1 outcome on either
// decider: the subject's verified key and the key binding the certificate
// idealizes to, whose K is that key's ID (subjectKey).
type signerKey struct {
	upk sharedrsa.PublicKey
	ks  logic.KeySpeaksFor
}

// verifySigners runs Step 3's checks on either decider, on the request's
// pooled scratch, with sc.keys filled by Step 1: every component states
// the first one's operation, object and payload, byte for byte, each
// signer has a verified identity whose key ID is the one the membership
// certificate binds to it, and each signature parses; then each signature
// is verified over its component's signed form, in request order, in
// the caller's goroutine. The first failing signer is the denial, and a
// context canceled between two checks surfaces as ctx.Err (an abort, not
// a denial). Once it returns nil, every co-signer signed the same request,
// which is what lets Step 3 idealize that request once (idealContent).
func (sc *reqScratch) verifySigners(ctx context.Context, req *AccessRequest) error {
	first := &req.Requests[0]
	sigs := grow(sc.sigs, len(req.Requests))
	sc.sigs = sigs
	// All bodies append into one pooled buffer, cut into slices once it
	// stops growing. The signature values parse into pooled big.Ints
	// (ParseHex reuses their limbs).
	sc.bodyBuf, sc.bodyOff = sc.bodyBuf[:0], sc.bodyOff[:0]
	for i := range req.Requests {
		r := &req.Requests[i]
		if r.Op != first.Op || r.Object != first.Object || !bytes.Equal(r.Payload, first.Payload) {
			return errors.New("co-signers disagree on the request")
		}
		key, ok := sc.signer(req, r.User)
		if !ok {
			return errors.New(r.User + ": " + missingIdentity)
		}
		want, ok := boundKeyID(req, r.User)
		if !ok {
			return errors.New(r.User + " is not a subject of the " + certKind(req) + " certificate")
		}
		if string(key.ks.K) != want {
			return errors.New(r.User + "'s identity key differs from the certificate binding")
		}
		start := len(sc.bodyBuf)
		sc.bodyBuf = appendRequestBody(sc.bodyBuf, r)
		sc.bodyOff = append(sc.bodyOff, start, len(sc.bodyBuf))
		if _, ok := sharedrsa.ParseHex(&sigs[i], r.SigS); !ok {
			return errors.New(r.User + ": malformed signature")
		}
	}
	for i := range req.Requests {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := &req.Requests[i]
		key, _ := sc.signer(req, r.User)
		body := sc.bodyBuf[sc.bodyOff[2*i]:sc.bodyOff[2*i+1]]
		if err := sharedrsa.VerifyWith(body, key.upk, sharedrsa.Signature{S: &sigs[i]}, &sc.verifyBuf); err != nil {
			return errors.New(r.User + ": request signature invalid")
		}
	}
	return nil
}

// deriveUtterances runs the replay's Step-3 derivations: each component,
// idealized as its signer's utterance signed with the key Step 1 verified,
// through VerifySignedRequest against the signer's derived key belief
// (statements 23–24).
func deriveUtterances(eng *logic.Engine, sc *reqScratch, req *AccessRequest, now clock.Time) ([]logic.Says, []int, error) {
	utterances := make([]logic.Says, len(req.Requests))
	utterSteps := make([]int, len(req.Requests))
	content := idealContent(&req.Requests[0])
	for i := range req.Requests {
		r := &req.Requests[i]
		key, _ := sc.signer(req, r.User)
		keyBelief, ok := eng.Store().KeyFor(r.User, now)
		if !ok {
			return nil, nil, errors.New("no derived key belief for " + r.User)
		}
		says, step, err := eng.VerifySignedRequest(signedUtterance(logic.P(r.User), r.At, content, key.ks.K), keyBelief)
		if err != nil {
			return nil, nil, errors.New("request derivation failed: " + err.Error())
		}
		utterances[i], utterSteps[i] = says, step
	}
	return utterances, utterSteps, nil
}

// signedUtterance idealizes a request component as its signer's signed
// utterance ⟦who says_at content⟧_K⁻¹, K being the key ID Step 1 verified
// for the signer and content the request's idealContent.
func signedUtterance(who logic.Subject, at clock.Time, content logic.Message, k logic.KeyID) logic.Signed {
	return logic.Sign(logic.AsMessage(logic.Says{Who: who, T: logic.At(at), X: content}), k)
}

// idealContent renders a request component's content as the logic message
// of the protocol ("write" O), extended with a payload digest when
// present. Step 3 builds it once per request, from the first component,
// after verifySigners has checked that every component states the same
// operation, object and payload.
func idealContent(r *UserRequest) logic.Message {
	items := make([]logic.Message, 2, 3)
	items[0], items[1] = logic.Const{Value: string(r.Op)}, logic.Const{Value: r.Object}
	if len(r.Payload) > 0 {
		var buf [len("payload#") + 8]byte
		digest := strconv.AppendUint(append(buf[:0], "payload#"...), uint64(fold(r.Payload)), 16)
		items = append(items, logic.Const{Value: string(digest)})
	}
	return logic.Tuple{Items: items}
}

// fold is a tiny stable digest that names a payload inside the idealized
// content. It is not collision resistant: different payloads can fold
// alike, so the content tells payloads apart only up to it. Co-signers
// are held to one payload by verifySigners, which compares the payloads
// byte for byte; each RSA signature binds its signer to its own full
// payload.
func fold(b []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
