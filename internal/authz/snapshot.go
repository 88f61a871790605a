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
//     membershipLeafDenial, over logic.LeafRefusal, hold the shared
//     check). A hit therefore
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
	"errors"
	"fmt"
	"slices"
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
	// held are the belief certificates the belief set holds — one record
	// per accepted group link, graph link, delegation, membership or
	// identity revocation, as journaled (Seq 0 without a journal) — in
	// the order accepted. A re-anchoring carries those the new anchors still
	// verify (applyReanchor), so the certificates are kept to verify,
	// install and journal again. Mutations are serialized and each one
	// extends the newest snapshot's list, so a mutation appends in place:
	// an older snapshot reads only the prefix it was published with.
	held []wal.Record
}

// newState is the one place a snapshot is built: eng must be sealed, cache
// is the key epoch's (a fresh one exactly when anchors changed), and the
// residue memo starts empty.
func newState(anchors TrustAnchors, eng *logic.Engine, epoch, watermark uint64, cache *certCache, held []wal.Record) *state {
	return &state{
		anchors:   anchors,
		eng:       eng,
		epoch:     epoch,
		watermark: watermark,
		cache:     cache,
		residues:  newResidueMemo(eng),
		held:      held,
	}
}

// Snapshot is a read-only view of the server's current belief state,
// exposed for tests and the proof-trace tooling. Epoch and Watermark
// version the belief set: Epoch increments on re-anchoring (a join or
// leave), Watermark on every processed revocation or group link and on
// every belief a re-anchoring carries.
type Snapshot struct {
	Epoch     uint64
	Watermark uint64
	eng       *logic.Engine
}

// Beliefs returns a copy of every belief held in the snapshot.
func (sn Snapshot) Beliefs() []logic.Entry { return sn.eng.Store().All() }

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
// fn returns the WAL record of the belief certificate it installed,
// which the new snapshot holds (state.held). On the live path (journal
// true) and with a journal attached, the record is written — and fsynced
// — before the snapshot is published, so an acknowledged mutation is
// always on stable storage (write-ahead); a journal failure aborts the
// mutation. Replay passes journal false: its record is already durable.
func (s *Server) mutate(journal bool, fn func(cur *state, eng *logic.Engine) (*wal.Record, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	eng := cur.eng.Fork()
	rec, err := fn(cur, eng)
	if err != nil {
		return err
	}
	seq := rec.Seq
	if j := s.journalRef(); journal && j != nil {
		if seq, err = j.Append(*rec, true); err != nil {
			return fmt.Errorf("authz: journal mutation: %w", err)
		}
	}
	eng.Seal()
	held := append(cur.held, wal.Record{Seq: seq, Type: rec.Type, At: rec.At, Body: rec.Body})
	s.publish(newState(cur.anchors, eng, cur.epoch, cur.watermark+1, cur.cache, held), cur)
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

// applyReanchor replaces the server's trust anchors with m.Anchors — the
// re-anchoring a coalition membership change requires — and starts a new
// key epoch with an empty certificate cache, its belief set rebuilt from
// the new anchors and every held belief certificate they carry
// (TrustAnchors.carries). The carried beliefs are installed into the one
// snapshot published, so no reader sees the epoch without them. A live
// re-anchoring (carried == nil) takes the next epoch and, with a journal
// attached, records the anchors and what it carried as one record
// (fsynced) before publishing; a journal failure leaves the old epoch in
// place. WAL replay, NewReplica and ApplyReplicated pass a recorded epoch
// and carried list, installed without a second check. The epoch's
// watermark counts the carried certificates.
func (s *Server) applyReanchor(m Reanchor, recorded *uint64, carried []wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	live := recorded == nil
	now := s.clk.Now()
	if live {
		carried = cur.held
	}
	eng := freshEngine(s.name, s.clk, m.Anchors)
	var kept []wal.Record
	if len(carried) > 0 {
		eng = eng.Fork()
		for _, rec := range carried {
			// Live, a chain link whose delegator's chain did not carry
			// has nothing to compose with: it is not carried either.
			b, err := readBelief(rec)
			if err == nil && live && !m.Anchors.carries(b, rec.At, now, m.Departed) {
				continue
			}
			if err == nil {
				err = b.install(eng, rec)
			}
			if err != nil {
				if live {
					continue
				}
				return err
			}
			kept = append(kept, rec)
		}
		eng.Seal()
	}
	epoch := cur.epoch + 1
	if !live {
		epoch = *recorded
	} else if j := s.journalRef(); j != nil {
		rec, err := anchorsRecord(m.Anchors, epoch, now, kept)
		if err != nil {
			return err
		}
		if _, err := j.Append(rec, true); err != nil {
			return fmt.Errorf("authz: journal re-anchoring: %w", err)
		}
	}
	s.publish(newState(m.Anchors, eng, epoch, uint64(len(kept)), newCertCache(), kept), cur)
	return nil
}

// CheckReanchor reports whether the server could record a re-anchoring
// now. With a journal attached, the anchors record carries the held
// belief certificates and a record is bounded (wal.MaxRecordBytes). The
// current anchors' encoding, room for one more domain's key, and every
// held certificate with its envelope bound the record from above. A
// coalition change checks this before its commit, which cannot be
// undone, so a change the server could not follow is refused while
// nothing has changed yet.
func (s *Server) CheckReanchor() error {
	if s.journalRef() == nil {
		return nil
	}
	cur := s.state.Load()
	rec, err := anchorsRecord(cur.anchors, cur.epoch, 0, nil)
	if err != nil {
		return err
	}
	size := len(rec.Body) + joinAllowance + len(cur.held)*heldRecordAllowance
	for _, r := range cur.held {
		size += len(r.Body)
	}
	if size > wal.MaxRecordBytes {
		return fmt.Errorf("%w: %d held beliefs may take %d bytes, a record holds %d", errCarryTooLarge, len(cur.held), size, wal.MaxRecordBytes)
	}
	return nil
}

// errCarryTooLarge refuses a re-anchoring whose anchors record could
// exceed the journal's record bound (CheckReanchor).
var errCarryTooLarge = errors.New("authz: too many beliefs to carry in one anchors record")

// joinAllowance bounds what a join adds to an anchors record (a domain
// name and its CA's key), and heldRecordAllowance the envelope of one
// carried record (seq, type, time).
const (
	joinAllowance       = 8 << 10
	heldRecordAllowance = 128
)

// carries reports whether a re-anchoring to a at now carries b, a held
// belief certificate accepted at at: under an unchanged AA key nothing
// granted is lost and nothing revoked comes back; after a re-key, what
// the old AA key signed drops. b's row decides first (belief.verify at
// at), then three carry-only filters drop what can decide nothing under
// a; a revocation names no end of what it revokes and passes them all.
func (a TrustAnchors) carries(b belief, at, now clock.Time, departed []pki.BoundSubject) bool {
	return b.verify(a, at) == nil && !b.pastValidity(now) && !b.departedDelegate(departed) && !b.revokesAnchorKey(a)
}

// pastValidity: a link or delegation whose validity ended before now can
// affect no decision again (the clock only advances).
func (b belief) pastValidity(now clock.Time) bool { return b.notAfter < now }

// departedDelegate: a delegation to one of departed — a user of a domain
// that left — is withdrawn with its domain; a chain link that extended it
// then has nothing to compose with (applyReanchor).
func (b belief) departedDelegate(departed []pki.BoundSubject) bool {
	return b.typ == wal.TypeDelegation && slices.Contains(departed, b.delegate)
}

// revokesAnchorKey: an identity revocation of one of a's own keys. An
// anchor key is a trust root, asserted again by the anchors that name it,
// so a CA that withdrew its own key is trusted again from the next
// re-anchoring that names it (DESIGN.md §7).
func (b belief) revokesAnchorKey(a TrustAnchors) bool {
	if b.typ != wal.TypeIdentityRevocation {
		return false
	}
	anchor := b.revokedKey == a.AAKey.KeyID() || a.RAName != "" && b.revokedKey == a.RAKey.KeyID()
	for _, k := range a.CAKeys {
		anchor = anchor || b.revokedKey == k.KeyID()
	}
	return anchor
}
