// Per-request scratch pooling for the authorize hot paths.
//
// Two pools feed Authorize. Engine forks come from logic's fork pool
// (ForkPooled/Recycle): the full replay path forks the snapshot engine
// on every request, and under load those forks — engine struct, belief
// store, overlay index — are the logic layer's entire garbage output.
// The residual fast path never forks; its per-request garbage is the
// scratch below: the lookup maps and slices the leaf checks fill, the
// canonical request-body encodings the co-signature verification hashes,
// and the big.Int signature values. Both pools are gated by SetPooling
// so the load harness can measure the baseline against the pooled
// configuration on one binary.
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
	"jointadmin/internal/sharedrsa"
)

// SetPooling toggles per-request pooling of engine forks and residual
// scratch (default on). The value is stored atomically and may be
// flipped while serving; each request reads it once. Decisions are
// bit-identical either way — pooling trades GC pressure for pool
// bookkeeping, nothing semantic.
func (s *Server) SetPooling(on bool) { s.noPool.Store(!on) }

// fork returns the per-request fork of the snapshot engine: pooled
// unless SetPooling(false). Callers recycle unconditionally — Recycle
// is a no-op on plain forks.
func (s *Server) fork(st *state) *logic.Engine {
	if s.noPool.Load() {
		return st.eng.Fork()
	}
	return st.eng.ForkPooled()
}

// reqScratch is the reusable per-request working set of Authorize: the
// residual fast path's lookup state and the certificate fingerprints both
// paths use. Fields are truncated, never shrunk, so a warm scratch
// serves a request of the same shape without allocating.
type reqScratch struct {
	boundKey map[string]string
	userKeys map[string]sharedrsa.PublicKey
	userKS   map[string]logic.KeySpeaksFor

	idHits     []cachedCert
	items      []cosignItem
	sigs       []big.Int
	utter      []logic.Says
	utterSteps []int
	premises   []int

	bodyBuf []byte // backing for every co-signer's canonical request body
	bodyOff []int  // start/end offset pairs into bodyBuf

	// memFP and idFPs are the fingerprints of the request's membership
	// certificate and of req.Identities, in order (fingerprint).
	memFP string
	idFPs []string
}

// fingerprint computes the request's certificate fingerprints once: the
// residual attempt fills them and, on a miss, the full replay reuses them
// (a fingerprint is a json.Marshal and a sha256 over the certificate).
func (sc *reqScratch) fingerprint(req *AccessRequest) {
	if sc.memFP != "" {
		return
	}
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

var scratchPool = sync.Pool{New: func() any {
	return &reqScratch{
		boundKey: make(map[string]string, 4),
		userKeys: make(map[string]sharedrsa.PublicKey, 4),
		userKS:   make(map[string]logic.KeySpeaksFor, 4),
	}
}}

// getScratch draws a scratch; with pooling disabled it is a throwaway.
func (s *Server) getScratch() *reqScratch {
	if s.noPool.Load() {
		return scratchPool.New().(*reqScratch)
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
	clear(sc.boundKey)
	clear(sc.userKeys)
	clear(sc.userKS)
	hits := sc.idHits[:cap(sc.idHits)]
	for i := range hits {
		hits[i] = cachedCert{}
	}
	sc.idHits = sc.idHits[:0]
	items := sc.items[:cap(sc.items)]
	for i := range items {
		items[i] = cosignItem{}
	}
	sc.items = sc.items[:0]
	ut := sc.utter[:cap(sc.utter)]
	for i := range ut {
		ut[i] = logic.Says{}
	}
	sc.utter = sc.utter[:0]
	sc.utterSteps = sc.utterSteps[:0]
	sc.premises = sc.premises[:0]
	sc.bodyBuf = sc.bodyBuf[:0]
	sc.bodyOff = sc.bodyOff[:0]
	sc.memFP = ""
	clear(sc.idFPs[:cap(sc.idFPs)])
	sc.idFPs = sc.idFPs[:0]
	scratchPool.Put(sc)
}

// grow returns sl resized to n, reusing capacity when possible.
func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}
