// Belief snapshots and the verified-certificate cache.
//
// The server's trust state — anchors, processed revocations and group
// links — lives in an immutable snapshot swapped atomically by the
// belief-mutating operations (Server.Apply). Authorize loads the current
// snapshot once and runs lock-free against it: certificate derivations go
// into a per-request fork of the snapshot's engine, and successful
// verifications are memoized in the certificate cache the snapshot points
// at (keyed by certificate fingerprint).
//
// The cache belongs to the key epoch, not to the snapshot. The paper's
// certificate acceptance (statements 12–22) concludes K ⇒ Q / W ⇒ G from
// the certificate and the trust anchors alone and holds it until revoked;
// revocation is a separate, time-stamped belief. The cache keeps exactly
// that split:
//
//   - An entry is a pure function of (trust anchors, certificate bytes):
//     the RSA check against an anchor key, the formula the certificate
//     idealizes to, its validity interval and the subject's parsed key. No
//     belief a mutation can add or withdraw is baked into it.
//   - Every belief-dependent condition is a live leaf, re-checked against
//     the reader's own snapshot on every hit: validity at the current
//     time; the issuer's own key not revoked (the cold derivation looks
//     the CA's or AA's key belief up with KeyFor, which skips a revoked
//     key — the one belief besides the subject's standing a verification
//     rests on); KeyRevoked for an identity's subject key, Revoked for a
//     membership, the believed chain and per-link revocation for a
//     delegation (verifyIdentities, verifyMembership,
//     verifyDelegatedMembership, decideResidual; identityLeafDenial and
//     membershipLeafDenial hold the shared checks). A hit therefore
//     decides exactly what re-verifying the certificate under that
//     snapshot would, reason included.
//
// So mutate (live Apply, WAL replay, ApplyReplicated) hands the current
// cache to the next snapshot, and only the constructors that change the
// anchors start an empty one: NewServer and applyReanchor (through which
// NewReplica and every replayed anchors record go too). A put
// by a request still running on the previous snapshot is sound for the
// same reason: within an epoch all snapshots share the anchors, so the
// entry it stores is the one a request on the newest snapshot would
// store; a request still running on a previous epoch holds that epoch's
// cache, never the new one.
//
// Each snapshot also carries the memo of residual checklists compiled, on
// first use, against its belief set (residual.go). Residues do depend on
// beliefs (relation closure, composed chains), so they stay per snapshot.

package authz

import (
	"fmt"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
)

// state is one immutable belief snapshot. All fields are fixed after
// publication except the cache and the residue memo, which only memoize
// conclusions already derivable from the anchors (cache) or from the
// snapshot's beliefs (residues).
type state struct {
	anchors TrustAnchors
	eng     *logic.Engine // sealed base engine; fork before deriving
	// epoch counts re-anchorings (key epochs); watermark counts belief
	// mutations within an epoch (revocations, group links). Together they
	// version the belief set.
	epoch     uint64
	watermark uint64
	// cache is the key epoch's verified-certificate cache, shared by every
	// snapshot of the epoch (see the file comment for why that is sound).
	cache *certCache
	// residues memoizes the checklists compiled against this snapshot's
	// belief set (residual.go), keyed by requesting group. They are
	// invalidated by construction: the next publish starts an empty memo.
	residues *residueMemo
}

// newState is the one place a snapshot is built: eng must be sealed, cache
// is the key epoch's (a fresh one exactly when anchors changed), and the
// residue memo starts empty.
func newState(anchors TrustAnchors, eng *logic.Engine, epoch, watermark uint64, cache *certCache) *state {
	return &state{
		anchors:   anchors,
		eng:       eng,
		epoch:     epoch,
		watermark: watermark,
		cache:     cache,
		residues:  newResidueMemo(eng),
	}
}

// Snapshot is a read-only view of the server's current belief state,
// exposed for tests and the proof-trace tooling. Epoch and Watermark
// version the belief set: Epoch increments on re-anchoring (rekey),
// Watermark on every processed revocation or group link.
type Snapshot struct {
	Epoch     uint64
	Watermark uint64
	eng       *logic.Engine
}

// Beliefs returns a copy of every belief held in the snapshot.
func (sn Snapshot) Beliefs() []logic.Entry { return sn.eng.Store().All() }

// Proof returns a copy of the snapshot's base derivation log (initial
// beliefs plus revocation reasoning).
func (sn Snapshot) Proof() *logic.Proof { return sn.eng.Proof().Clone() }

// Engine returns a private fork of the snapshot's engine: callers may
// derive freely without affecting the server.
func (sn Snapshot) Engine() *logic.Engine { return sn.eng.Fork() }

// Snapshot returns the server's current immutable belief snapshot.
func (s *Server) Snapshot() Snapshot {
	st := s.state.Load()
	return Snapshot{Epoch: st.epoch, Watermark: st.watermark, eng: st.eng}
}

// cachedCert is one memoized certificate verification: the formula the
// derivation concluded, the certificate's validity interval (re-checked at
// hit time — the clock advances within an epoch's lifetime), and, for
// identity certificates, the subject's parsed verification key.
type cachedCert struct {
	formula    logic.Formula
	validity   clock.Interval
	subjectKey sharedrsa.PublicKey
	note       string
}

// certCacheCap bounds the entries of one key epoch's cache. An epoch lasts
// until the next re-key — days — so without a bound the cache would grow
// with every certificate ever presented. An identity entry measures about
// 0.6 KB at 512-bit keys, map and ring slots included (formula, note,
// parsed key; 2048-bit keys add 0.2 KB), so a full cache stays under
// 64 MB: the zipfian hot set of a million-principal coalition fits, and a
// principal colder than that re-verifies as it always did.
const certCacheCap = 1 << 16

// certCache memoizes successful certificate verifications by fingerprint
// for one key epoch (see the file comment). It holds at most certCacheCap
// entries, evicting in insertion order: a hit writes nothing (no recency
// bookkeeping, read lock only), and a put past the bound overwrites the
// oldest slot of the ring, O(1). Nothing is preallocated; map and ring
// grow with the entries.
type certCache struct {
	mu sync.RWMutex
	m  map[string]cachedCert
	// ring lists the fingerprints in insertion order; once certCacheCap
	// long it is circular and next is the oldest slot. A slot whose entry
	// was dropped on expiry is stale until it is overwritten, so
	// len(m) ≤ len(ring) ≤ certCacheCap.
	ring []string
	next int
}

func newCertCache() *certCache {
	return &certCache{m: make(map[string]cachedCert)}
}

func (c *certCache) get(fp string) (cachedCert, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.m[fp]
	return e, ok
}

// put stores a verification and reports whether it evicted the oldest
// entry to make room. Racing misses on one certificate store equal
// entries (an entry is a function of anchors and certificate bytes), so
// the first one stands.
func (c *certCache) put(fp string, e cachedCert) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fp]; ok {
		return false
	}
	if len(c.ring) < certCacheCap {
		c.ring = append(c.ring, fp)
	} else {
		oldest := c.ring[c.next]
		if _, ok := c.m[oldest]; ok {
			delete(c.m, oldest)
			evicted = true
		}
		c.ring[c.next] = fp
		c.next = (c.next + 1) % certCacheCap
	}
	c.m[fp] = e
	return evicted
}

// drop removes an entry a hit found expired (the clock is monotonic, so it
// can never verify again) and reports whether it was still there.
func (c *certCache) drop(fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[fp]
	delete(c.m, fp)
	return ok
}

func (c *certCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// cachePut memoizes a verification in the epoch's cache, counting an
// eviction it caused.
func (s *Server) cachePut(st *state, fp string, e cachedCert) {
	if st.cache.put(fp, e) {
		s.reg.Counter(MetricCacheInvalidated).Inc()
	}
}

// expiredHit handles a cache hit on a certificate whose validity no longer
// covers now: the entry is dropped (counted as an eviction) and the denial
// reads exactly as re-verifying the certificate would render it.
func (s *Server) expiredHit(st *state, fp string, e cachedCert, now clock.Time) error {
	if st.cache.drop(fp) {
		s.reg.Counter(MetricCacheInvalidated).Inc()
	}
	return fmt.Errorf("%w: %s outside [%s, %s]", pki.ErrExpired, now, e.validity.Begin, e.validity.End)
}

// mutate runs fn against a fork of the current base engine and, on
// success, seals the fork and publishes it as the new snapshot — same
// anchors, so the same verified-certificate cache, and a fresh residue
// memo. Sealing folds the mutation's overlay into the immutable base
// layers, so Authorize's per-request forks of the new snapshot stay O(1).
// On error the fork is discarded and the published state is untouched.
// Mutators are serialized by s.mu; Authorize never takes it.
//
// fn may return a WAL record describing the mutation; when a journal is
// attached the record is written — and fsynced — before the snapshot is
// published, so an acknowledged mutation is always on stable storage
// (write-ahead). A journal failure aborts the mutation.
func (s *Server) mutate(fn func(cur *state, eng *logic.Engine) (*wal.Record, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	eng := cur.eng.Fork()
	rec, err := fn(cur, eng)
	if err != nil {
		return err
	}
	if rec != nil {
		if j := s.journalRef(); j != nil {
			if _, err := j.Append(*rec, true); err != nil {
				return fmt.Errorf("authz: journal mutation: %w", err)
			}
		}
	}
	eng.Seal()
	s.publish(newState(cur.anchors, eng, cur.epoch, cur.watermark+1, cur.cache), cur)
	return nil
}

// publish swaps in the new state. A new key epoch brings its own empty
// cache; the entries of the outgoing one are accounted as dropped.
func (s *Server) publish(next, prev *state) {
	s.state.Store(next)
	if prev != nil {
		if next.cache != prev.cache {
			s.reg.Counter(MetricCacheInvalidated).Add(int64(prev.cache.len()))
		}
		s.reg.Counter(MetricSnapshotSwaps).Inc()
	}
}

// applyReanchor replaces the server's trust anchors — the re-anchoring a
// coalition rekey (Join/Leave) requires — and starts a new key epoch. The
// belief set is rebuilt from the new anchors and the new epoch starts an
// empty certificate cache: nothing verified under the old anchors
// survives. A live re-anchoring (recorded == nil) takes the next epoch
// and, with a journal attached, records the new anchors (fsynced) before
// the epoch is published; a journal failure leaves the old epoch in
// place. A replayed anchors record passes its recorded epoch and journals
// nothing: the record is already durable.
func (s *Server) applyReanchor(anchors TrustAnchors, recorded *uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	epoch := cur.epoch + 1
	if recorded != nil {
		epoch = *recorded
	} else if j := s.journalRef(); j != nil {
		rec, err := anchorsRecord(anchors, epoch, s.clk.Now())
		if err != nil {
			return err
		}
		if _, err := j.Append(rec, true); err != nil {
			return fmt.Errorf("authz: journal re-anchoring: %w", err)
		}
	}
	s.publish(newState(anchors, freshEngine(s.name, s.clk, anchors), epoch, 0, newCertCache()), cur)
	return nil
}
