// Per-request scratch pooling for the authorize hot path.
//
// Every decision, on either decider, draws its working set from one pool:
// Step 1's verified keys, the canonical request-body encodings Step 3's
// signature checks hash, the big.Int signature values, and the residual
// decider's leaf-check slices. The warm arm never forks the snapshot's
// engine; the cold arm and the replay fork it plainly (logic.Engine.Fork),
// since a sealed fork is O(1). The pool is gated by SetPooling, which
// survives only because the frozen benchmark module calls it; nothing in
// this module turns pooling off outside the pooled-vs-unpooled tests.
//
// Soundness: nothing in a reqScratch may outlive the request. Decisions
// escape only the proof (GC-managed, never pooled), the request ID
// string, Reason/Group strings, and Data (owned by the object store) —
// pinned by the no-leak tests in pool_test.go.

package authz

import (
	"math/big"
	"sync"

	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
)

// SetPooling toggles pooling of the request scratch (default on). The
// value is stored atomically and may be flipped while serving; each
// request reads it once. Decisions are bit-identical either way — pooling
// trades GC pressure for pool bookkeeping, nothing semantic.
func (s *Server) SetPooling(on bool) { s.noPool.Store(!on) }

// reqScratch is the reusable per-request working set of Authorize.
// Fields are truncated, never shrunk, so a warm scratch serves a request
// of the same shape without allocating.
type reqScratch struct {
	// keys[i] is Step 1's outcome for req.Identities[i], on either
	// decider (signer looks it up by subject).
	keys []signerKey

	idHits   []cachedCert // the residual decider's cached identities
	sigs     []big.Int
	utter    []logic.Says
	premises []int

	bodyBuf []byte // backing for every co-signer's canonical request body
	bodyOff []int  // start/end offset pairs into bodyBuf

	// memFP and idFPs are the fingerprints of the request's membership
	// certificate and of req.Identities, in order (fingerprint).
	memFP string
	idFPs []string
}

// fingerprint computes the request's certificate fingerprints once, for
// every cache lookup and put the decision makes (a fingerprint is a
// sha256 over the certificate's length-prefixed binary fields, kind tag,
// signer key and signature; one allocation).
func (sc *reqScratch) fingerprint(req *AccessRequest) {
	switch {
	case req.Delegated:
		sc.memFP = pki.Fingerprint(req.Delegation)
	case req.SingleSubject:
		sc.memFP = pki.Fingerprint(req.Single)
	default:
		sc.memFP = pki.Fingerprint(req.Threshold)
	}
	sc.idFPs = grow(sc.idFPs, len(req.Identities))
	for i := range req.Identities {
		sc.idFPs[i] = pki.Fingerprint(req.Identities[i])
	}
}

// signer returns Step 1's verified key for the last identity certificate
// in req naming user, and whether there is one.
func (sc *reqScratch) signer(req *AccessRequest, user string) (signerKey, bool) {
	for i := len(req.Identities) - 1; i >= 0; i-- {
		if req.Identities[i].Cert.Subject == user {
			return sc.keys[i], true
		}
	}
	return signerKey{}, false
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// getScratch draws a scratch; with pooling disabled it is a throwaway.
func (s *Server) getScratch() *reqScratch {
	if s.noPool.Load() {
		return new(reqScratch)
	}
	return scratchPool.Get().(*reqScratch)
}

// putScratch clears every reference the scratch holds — through the
// full backing capacity, so parked scratches pin nothing for the GC —
// and returns it to the pool.
func (s *Server) putScratch(sc *reqScratch) {
	if s.noPool.Load() {
		return
	}
	clearAll(&sc.keys)
	clearAll(&sc.idHits)
	clearAll(&sc.utter)
	clearAll(&sc.idFPs)
	sc.premises = sc.premises[:0]
	sc.bodyBuf = sc.bodyBuf[:0]
	sc.bodyOff = sc.bodyOff[:0]
	sc.memFP = ""
	scratchPool.Put(sc)
}

// clearAll zeroes *sl through its full capacity and truncates it.
func clearAll[T any](sl *[]T) {
	clear((*sl)[:cap(*sl)])
	*sl = (*sl)[:0]
}

// grow returns sl resized to n, reusing capacity when possible.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}
