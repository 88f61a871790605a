// Read-only replica installation: building and advancing a follower's
// belief state purely from shipped WAL records, without ever attaching a
// journal.
//
// The enabling property is that TypeAnchors records carry the full
// public trust anchors in wire form (wireAnchors), so a follower needs
// none of the writer's key material — it reconstructs a
// trust-equivalent server from the record stream alone and evaluates
// pre-built wire AccessRequests against it. Because Replay refuses to
// run once a journal is attached, and a replica never attaches one,
// incremental ApplyReplicated calls stay valid for the server's whole
// lifetime: the follower is structurally incapable of writing state, it
// can only mirror the writer's.

package authz

import (
	"errors"
	"fmt"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/wal"
)

// NewReplica builds a read-only authorization server from a shipped
// record history (a wal.Log History, or a replication snapshot frame).
// The history must be a state prefix (wal.StateStart): audit records,
// then the anchors record its state starts at — the genesis, or where a
// compaction cut — and a server cannot exist without trust anchors. The
// whole history is replayed with ReplayExact, so the leading audit
// records land in the audit log and the replica lands on the writer's
// recorded epoch, watermark and belief set. The clock starts at zero and
// advances to each record's timestamp during replay; objects arrive
// separately (they are not belief state), via acl.Store.Import on the
// provided store. The replica decides writes and modifies but does not
// perform them (Server.execute).
func NewReplica(name string, clk *clock.Clock, objects *acl.Store, log *audit.Log, recs []wal.Record) (*Server, ReplayReport, error) {
	start, err := wal.StateStart(recs)
	if err != nil {
		return nil, ReplayReport{}, fmt.Errorf("authz: replica history: %w", err)
	}
	anchors, _, _, err := decodeAnchors(recs[start].Body)
	if err != nil {
		return nil, ReplayReport{}, err
	}
	s := NewServer(name, clk, anchors, objects, log)
	s.replica = true
	rep, err := s.Replay(recs, ReplayExact)
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// ApplyReplicated advances a replica by a batch of newly shipped records
// under ReplayExact semantics: anchors records re-anchor (epoch
// cut-over), belief mutations apply verbatim, audit records land in the
// local audit log, and nothing is journaled. It is the streaming
// counterpart of NewReplica and fails if a journal is attached — a
// server that journals is a writer, and feeding it shipped records would
// duplicate them into its own log.
func (s *Server) ApplyReplicated(recs []wal.Record) (ReplayReport, error) {
	if s.journalRef() != nil {
		return ReplayReport{}, errors.New("authz: ApplyReplicated on a journaling server (replicas never attach a journal)")
	}
	return s.Replay(recs, ReplayExact)
}
