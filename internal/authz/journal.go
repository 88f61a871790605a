// Durability: journaling belief mutations to the write-ahead log and
// replaying them on startup.
//
// Every belief mutation (revocation, identity revocation, group link,
// delegation, group-graph link, re-anchoring) is appended to the attached
// journal *before* the new snapshot is published — write-ahead in the
// strict sense: a mutation the caller saw acknowledged is on stable
// storage. Audit entries are journaled too, with wait=false: nothing
// waits on them, so with a group-commit window (wal.Options.BatchWindow
// > 0) an audit append returns before its flush. With no window — the
// daemon's and coalitiond's default — wal.Log.Append fsyncs every record
// inline, under the log's lock, whatever wait says: an audit append then
// costs its caller an fsync like any record, and the acknowledgement of
// a mutation that records an audit entry (a revocation does) waits for
// two, its record's and its entry's.
//
// Replay — crash recovery here, a replication follower through
// replica.go — runs one function for every belief record (replayRecord):
// the certificate is read through its kind's row of the belief table
// (beliefs.go), idealized as the live derivation did, and installed at
// the record's timestamp (belief.install), exactly as the live acceptance
// tail does. Signatures are not re-checked: each record was verified
// when first accepted and is CRC-protected at rest, in the WAL's log
// and its snapshot alike (one frame format, checked by wal.Scan
// wherever it is read), and after a full restart the signing keys may
// have been regenerated (the daemon's
// authorities hold fresh keys every boot). Revocations match principal
// *names* (logic.BeliefStore's subject aliasing), so a replayed
// revocation of G_write over {alice, bob} blocks a re-issued certificate
// with brand-new keys — the Requirement III guarantee a restart must not
// forget.

package authz

import (
	"encoding/json"
	"errors"
	"fmt"

	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
)

// Journal is the durable sink for belief mutations and audit decisions.
// *wal.Log implements it; tests may substitute fakes.
type Journal interface {
	// Append stores one record; wait=true blocks until it is on stable
	// storage.
	Append(rec wal.Record, wait bool) (uint64, error)
	// Empty reports whether the journal holds no records yet.
	Empty() bool
}

var _ Journal = (*wal.Log)(nil)

// journalBox wraps the Journal for atomic.Pointer storage (Authorize
// reads it lock-free on the audit path).
type journalBox struct{ j Journal }

// SetJournal attaches the journal: from now on every belief mutation is
// recorded before it is acknowledged. On a brand-new journal the current
// anchors and epoch are written first, with the belief certificates the
// server holds (the genesis record), so recovery always starts from a
// known trust state. Call after Replay, never
// before — journaling replayed records would duplicate them.
func (s *Server) SetJournal(j Journal) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j == nil {
		return errors.New("authz: nil journal")
	}
	if j.Empty() {
		st := s.state.Load()
		rec, err := anchorsRecord(st.anchors, st.epoch, s.clk.Now(), st.held)
		if err != nil {
			return err
		}
		if _, err := j.Append(rec, true); err != nil {
			return fmt.Errorf("authz: journal genesis anchors: %w", err)
		}
	}
	s.journal.Store(&journalBox{j: j})
	return nil
}

// Rejournal re-describes the server's live trust state in the journal
// after a recovery that regenerated the signing authorities' keys (the
// daemon's boot path). ReplayBeliefs keeps the fresh anchors and
// re-applies the recovered belief mutations in memory — but the journal
// still ends with the *old* anchors, so a ReplayExact consumer (a
// replication follower, `policyctl wal -dump`) would reconstruct a
// belief state keyed to authorities that no longer exist. Rejournal
// closes that gap: when the last recorded anchors differ from the live
// ones (compared by AA key fingerprint), it appends a fresh anchors
// record at the live epoch carrying the belief certificates that
// survived recovery, so replaying the journal verbatim converges on
// exactly the live state. Call it once, after Replay and SetJournal,
// before serving; recovered is Replay's input.
func (s *Server) Rejournal(recovered []wal.Record) error {
	j := s.journalRef()
	if j == nil {
		return errors.New("authz: Rejournal before SetJournal")
	}
	if len(recovered) == 0 {
		return nil
	}
	cut := -1
	for i, r := range recovered {
		if r.Type == wal.TypeAnchors {
			cut = i
		}
	}
	st := s.state.Load()
	if cut >= 0 {
		prev, _, _, err := decodeAnchors(recovered[cut].Body)
		if err == nil && prev.AAKey.KeyID() == st.anchors.AAKey.KeyID() {
			return nil // authorities survived the restart; the journal is already exact
		}
	}
	rec, err := anchorsRecord(st.anchors, st.epoch, s.clk.Now(), st.held)
	if err != nil {
		return err
	}
	if _, err := j.Append(rec, true); err != nil {
		return fmt.Errorf("authz: rejournal anchors: %w", err)
	}
	return nil
}

// journalRef returns the attached journal, nil when none.
func (s *Server) journalRef() Journal {
	if b := s.journal.Load(); b != nil {
		return b.j
	}
	return nil
}

// wireAnchors is the serializable form of TrustAnchors (sharedrsa keys
// rendered through pki.KeyInfo).
type wireAnchors struct {
	AAName          string                 `json:"aaName"`
	AAKey           pki.KeyInfo            `json:"aaKey"`
	Domains         []string               `json:"domains"`
	CAKeys          map[string]pki.KeyInfo `json:"caKeys"`
	RAName          string                 `json:"raName,omitempty"`
	RAKey           pki.KeyInfo            `json:"raKey,omitempty"`
	TrustSince      clock.Time             `json:"trustSince"`
	FreshnessWindow int64                  `json:"freshnessWindow,omitempty"`
}

// anchorsBody is the TypeAnchors record body. Epoch is first so
// wal.Dump can read it without knowing the full shape. Carried are the
// belief certificates the re-anchoring carries into its epoch, as the
// belief records they were journaled as, in the order accepted;
// a log written before re-anchorings carried them has none, and its
// carried identity revocations follow the anchors record as records of
// their own.
type anchorsBody struct {
	Epoch   uint64       `json:"epoch"`
	Anchors wireAnchors  `json:"anchors"`
	Carried []wal.Record `json:"carried,omitempty"`
}

func anchorsRecord(a TrustAnchors, epoch uint64, at clock.Time, carried []wal.Record) (wal.Record, error) {
	w := wireAnchors{
		AAName:          a.AAName,
		AAKey:           pki.NewKeyInfo(a.AAKey),
		Domains:         a.Domains,
		CAKeys:          make(map[string]pki.KeyInfo, len(a.CAKeys)),
		TrustSince:      a.TrustSince,
		FreshnessWindow: a.FreshnessWindow,
	}
	for name, key := range a.CAKeys {
		w.CAKeys[name] = pki.NewKeyInfo(key)
	}
	if a.RAName != "" {
		w.RAName, w.RAKey = a.RAName, pki.NewKeyInfo(a.RAKey)
	}
	body, err := json.Marshal(anchorsBody{Epoch: epoch, Anchors: w, Carried: carried})
	if err != nil {
		return wal.Record{}, fmt.Errorf("authz: encode anchors record: %w", err)
	}
	return wal.Record{Type: wal.TypeAnchors, At: at, Body: body}, nil
}

func decodeAnchors(body json.RawMessage) (TrustAnchors, uint64, []wal.Record, error) {
	var b anchorsBody
	if err := json.Unmarshal(body, &b); err != nil {
		return TrustAnchors{}, 0, nil, fmt.Errorf("authz: decode anchors record: %w", err)
	}
	a := TrustAnchors{
		AAName:          b.Anchors.AAName,
		Domains:         b.Anchors.Domains,
		CAKeys:          make(map[string]sharedrsa.PublicKey, len(b.Anchors.CAKeys)),
		RAName:          b.Anchors.RAName,
		TrustSince:      b.Anchors.TrustSince,
		FreshnessWindow: b.Anchors.FreshnessWindow,
	}
	var err error
	if a.AAKey, err = b.Anchors.AAKey.PublicKey(); err != nil {
		return TrustAnchors{}, 0, nil, fmt.Errorf("authz: anchors record AA key: %w", err)
	}
	for name, ki := range b.Anchors.CAKeys {
		if a.CAKeys[name], err = ki.PublicKey(); err != nil {
			return TrustAnchors{}, 0, nil, fmt.Errorf("authz: anchors record CA %s key: %w", name, err)
		}
	}
	if b.Anchors.RAName != "" {
		if a.RAKey, err = b.Anchors.RAKey.PublicKey(); err != nil {
			return TrustAnchors{}, 0, nil, fmt.Errorf("authz: anchors record RA key: %w", err)
		}
	}
	return a, b.Epoch, b.Carried, nil
}

// auditRecord wraps an audit entry as a WAL record.
func auditRecord(e audit.Entry, at clock.Time) (wal.Record, error) {
	body, err := json.Marshal(e)
	if err != nil {
		return wal.Record{}, fmt.Errorf("authz: encode audit record: %w", err)
	}
	return wal.Record{Type: wal.TypeAudit, At: at, Body: body}, nil
}

// audit records an entry in the in-memory audit log and, when a journal
// is attached, appends it as a WAL audit record with wait=false, which
// skips the wait for a group-commit flush but not the inline fsync of a
// log with no batch window (see the file comment). The WAL keeps text,
// so a journaled entry's derivation is rendered here, once, for both.
func (s *Server) audit(e audit.Entry) {
	j := s.journalRef()
	if j != nil && e.Derivation != nil {
		e.ProofTrace, e.Derivation = e.Derivation.String(), nil
	}
	if s.log != nil {
		s.log.Record(e)
	}
	if j != nil {
		if rec, err := auditRecord(e, e.At); err == nil {
			j.Append(rec, false)
		}
	}
}

// ReplayPolicy selects how Replay treats anchors records.
type ReplayPolicy int

const (
	// ReplayExact reinstalls each recorded anchors record verbatim and
	// applies every mutation: the recovered server ends at the recorded
	// epoch and watermark with the recorded trust anchors. Use when the
	// signing authorities outlive the server process.
	ReplayExact ReplayPolicy = iota
	// ReplayBeliefs keeps the server's current (freshly configured)
	// anchors and applies only the belief mutations the last anchors
	// record carries and those recorded after it — matching live
	// semantics, where a re-anchoring rebuilds the belief set from what it
	// carries. Use when the whole authority stack restarted with new keys
	// (the daemon).
	ReplayBeliefs
)

// ReplayReport summarizes a replay. The belief counts count belief
// records; under ReplayBeliefs the certificates the last anchors record
// carries are replayed, and counted, as belief records too.
type ReplayReport struct {
	Records             int
	Anchors             int
	Revocations         int
	IdentityRevocations int
	GroupLinks          int
	Delegations         int
	GroupGraphLinks     int
	AuditEntries        int
	// Skipped counts belief mutations superseded by a later re-anchoring
	// (ReplayBeliefs only).
	Skipped int
	// Epoch and Watermark are the server's versions after the replay.
	Epoch     uint64
	Watermark uint64
}

// String renders the report as a one-line summary.
func (r ReplayReport) String() string {
	return fmt.Sprintf("replayed %d records (%d anchors, %d revocations, %d identity revocations, %d group links, %d delegations, %d graph links, %d audit entries; %d superseded) → epoch %d watermark %d",
		r.Records, r.Anchors, r.Revocations, r.IdentityRevocations, r.GroupLinks, r.Delegations, r.GroupGraphLinks, r.AuditEntries, r.Skipped, r.Epoch, r.Watermark)
}

// Replay rebuilds the server's belief state from a recovered record
// sequence (wal.Open's output). It must run before SetJournal and before
// the server handles requests. The logical clock is advanced to each
// record's timestamp and every belief is installed at that timestamp, so
// time-dependent beliefs — revocation effective times, accuracy
// intervals — reproduce exactly; a replayed revocation therefore denies
// requests after restart just as it did before the crash.
func (s *Server) Replay(recs []wal.Record, policy ReplayPolicy) (ReplayReport, error) {
	var rep ReplayReport
	if s.journalRef() != nil {
		return rep, errors.New("authz: Replay must run before SetJournal")
	}
	// Under ReplayBeliefs, mutations before the final anchors record were
	// superseded by that re-anchoring, which holds what it carried.
	cut := -1
	if policy == ReplayBeliefs {
		for i, r := range recs {
			if r.Type == wal.TypeAnchors {
				cut = i
			}
		}
	}
	for i, r := range recs {
		s.clk.AdvanceTo(r.At)
		rep.Records++
		var err error
		switch r.Type {
		case wal.TypeAnchors:
			rep.Anchors++
			switch {
			case policy == ReplayExact:
				err = s.replayRecord(r)
			case i == cut:
				err = s.replayCarried(r, &rep)
			}
		case wal.TypeAudit:
			rep.AuditEntries++
			var e audit.Entry
			if err = json.Unmarshal(r.Body, &e); err == nil && s.log != nil {
				s.log.Record(e)
			}
		default:
			switch k, ok := beliefKinds[r.Type]; {
			case !ok:
				err = fmt.Errorf("unknown record type %q", r.Type)
			case i < cut: // superseded (ReplayBeliefs only)
				rep.Skipped++
			default:
				*k.tally(&rep)++
				err = s.replayRecord(r)
			}
		}
		if err != nil {
			return rep, fmt.Errorf("authz: replay record %d (seq %d, %s): %w", i, r.Seq, r.Type, err)
		}
	}
	st := s.state.Load()
	rep.Epoch, rep.Watermark = st.epoch, st.watermark
	return rep, nil
}

// replayCarried replays what the anchors record r carried as belief
// records (ReplayBeliefs: the fresh anchors stand).
func (s *Server) replayCarried(r wal.Record, rep *ReplayReport) error {
	_, _, carried, err := decodeAnchors(r.Body)
	if err != nil {
		return err
	}
	for _, c := range carried {
		k, ok := beliefKinds[c.Type]
		if !ok {
			return fmt.Errorf("carried record of type %q", c.Type)
		}
		*k.tally(rep)++
		if err := s.replayRecord(c); err != nil {
			return err
		}
	}
	return nil
}

// replayRecord applies one recorded mutation — the one replay function.
// An anchors record re-anchors at its recorded epoch with what it
// carried. A belief record is decoded through its kind's row, installed
// (belief.install) and held, to carry across a later re-anchoring.
func (s *Server) replayRecord(r wal.Record) error {
	if r.Type == wal.TypeAnchors {
		anchors, epoch, carried, err := decodeAnchors(r.Body)
		if err != nil {
			return err
		}
		return s.applyReanchor(Reanchor{Anchors: anchors}, &epoch, carried)
	}
	return s.mutate(false, func(_ *state, eng *logic.Engine) (*wal.Record, error) {
		b, err := readBelief(r)
		if err != nil {
			return nil, err
		}
		return &r, b.install(eng, r)
	})
}
