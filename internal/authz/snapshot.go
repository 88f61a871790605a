// Belief snapshots and the verified-certificate cache.
//
// The server's trust state — anchors, processed revocations and group
// links — lives in an immutable snapshot swapped atomically by the
// belief-mutating operations (Server.Apply and its deprecated
// Process*/Reanchor wrappers). Authorize loads the current snapshot once
// and runs lock-free against it: certificate derivations go into a
// per-request fork of the snapshot's engine, and successful
// verifications are memoized in the snapshot's certificate cache (keyed by
// certificate fingerprint). Because the cache lives inside the snapshot,
// every belief mutation discards it wholesale — a cached certificate can
// never outlive the belief set it was verified under. Each snapshot also
// carries the memo of residual checklists compiled, on first use, against
// its belief set (residual.go), so residue invalidation rides the same
// swap.

package authz

import (
	"fmt"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
)

// state is one immutable belief snapshot. All fields are fixed after
// publication except the cache and the residue memo, which only memoize
// conclusions already derivable from the snapshot's beliefs.
type state struct {
	anchors TrustAnchors
	eng     *logic.Engine // sealed base engine; fork before deriving
	// epoch counts re-anchorings (key epochs); watermark counts belief
	// mutations within an epoch (revocations, group links). Together they
	// version the belief set.
	epoch     uint64
	watermark uint64
	cache     *certCache
	// residues memoizes the checklists compiled against this snapshot's
	// belief set (residual.go), keyed by requesting group. They are
	// invalidated by construction: the next publish starts an empty memo.
	residues *residueMemo
}

// newState is the one place a snapshot is built: eng must be sealed, and
// the certificate cache and residue memo start empty.
func newState(anchors TrustAnchors, eng *logic.Engine, epoch, watermark uint64) *state {
	return &state{
		anchors:   anchors,
		eng:       eng,
		epoch:     epoch,
		watermark: watermark,
		cache:     newCertCache(),
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
// hit time — the clock advances within a snapshot's lifetime), and, for
// identity certificates, the subject's parsed verification key.
type cachedCert struct {
	formula    logic.Formula
	validity   clock.Interval
	subjectKey sharedrsa.PublicKey
	note       string
}

// certCache memoizes successful certificate verifications by fingerprint.
// It is bound to exactly one state: belief mutations publish a new state
// with a fresh cache, so entries are invalidated wholesale.
type certCache struct {
	mu sync.RWMutex
	m  map[string]cachedCert
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

func (c *certCache) put(fp string, e cachedCert) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = e
}

func (c *certCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// mutate runs fn against a fork of the current base engine and, on
// success, seals the fork and publishes it as the new snapshot with a
// fresh certificate cache and residue memo. Sealing folds the mutation's
// overlay into the immutable base layers, so Authorize's per-request
// forks of the new snapshot stay O(1). On error the fork is discarded and
// the published state is untouched. Mutators are serialized by s.mu;
// Authorize never takes it.
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
	s.publish(newState(cur.anchors, eng, cur.epoch, cur.watermark+1), cur)
	return nil
}

// publish swaps in the new state, accounting the discarded cache entries.
func (s *Server) publish(next, prev *state) {
	s.state.Store(next)
	if prev != nil {
		if n := prev.cache.len(); n > 0 {
			s.reg.Counter(MetricCacheInvalidated).Add(int64(n))
		}
		s.reg.Counter(MetricSnapshotSwaps).Inc()
	}
}

// applyReanchor replaces the server's trust anchors — the re-anchoring a
// coalition rekey (Join/Leave) requires — bumping the key epoch. The belief
// set is rebuilt from the new anchors and the certificate cache is
// discarded: nothing verified under the old epoch survives. With a
// journal attached, the new anchors are recorded (and fsynced) before
// the epoch is published; a journal failure leaves the old epoch in
// place.
func (s *Server) applyReanchor(anchors TrustAnchors) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	if j := s.journalRef(); j != nil {
		rec, err := anchorsRecord(anchors, cur.epoch+1, s.clk.Now())
		if err != nil {
			return err
		}
		if _, err := j.Append(rec, true); err != nil {
			return fmt.Errorf("authz: journal re-anchoring: %w", err)
		}
	}
	s.publish(newState(anchors, freshEngine(s.name, s.clk, anchors), cur.epoch+1, 0), cur)
	return nil
}

// restoreAt installs recorded trust anchors at their recorded epoch —
// the replay counterpart of Reanchor (ReplayExact), which never
// journals: the record being replayed is already durable.
func (s *Server) restoreAt(anchors TrustAnchors, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish(newState(anchors, freshEngine(s.name, s.clk, anchors), epoch, 0), s.state.Load())
}
