// Durability: journaling belief mutations to the write-ahead log and
// replaying them on startup.
//
// Every belief mutation (revocation, identity revocation, group link,
// delegation, group-graph link, re-anchoring) is appended to the attached
// journal *before* the new snapshot is published — write-ahead in the
// strict sense: a mutation the caller saw acknowledged is on stable
// storage. Audit entries are journaled too, on the group-commit path (no
// fsync wait — decisions are observability, not preconditions).
//
// Replay — crash recovery here, a replication follower through
// replica.go — runs one function for every belief record (replayRecord):
// it idealizes the recorded certificate with the pki idealizer the live
// derivation used, appends one logic.RuleJournaled leaf citing the
// record's sequence number, and hands the certificate's conclusion to
// logic.Engine.Install at the record's timestamp, exactly as the live
// acceptance tail does (mutation.go). Signatures are not re-checked: each
// record was verified when it was first accepted and is CRC-protected at
// rest, and after a full restart the signing keys may have been
// regenerated (the daemon's authorities hold fresh keys every boot). The
// revocation matching layer compares principal *names*
// (logic.BeliefStore's subject aliasing), so a replayed revocation of
// G_write over {alice, bob} blocks a re-issued certificate with
// brand-new keys — exactly the Requirement III guarantee a restart must
// not forget.

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
// anchors and epoch are written first (the genesis record), so recovery
// always starts from a known trust state. Call after Replay, never
// before — journaling replayed records would duplicate them.
func (s *Server) SetJournal(j Journal) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j == nil {
		return errors.New("authz: nil journal")
	}
	if j.Empty() {
		st := s.state.Load()
		rec, err := anchorsRecord(st.anchors, st.epoch, s.clk.Now())
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
// record at the live epoch followed by copies of the belief mutations
// that survived recovery, so replaying the journal verbatim converges on
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
		prev, _, err := decodeAnchors(recovered[cut].Body)
		if err == nil && prev.AAKey.KeyID() == st.anchors.AAKey.KeyID() {
			return nil // authorities survived the restart; the journal is already exact
		}
	}
	now := s.clk.Now()
	pending := make([]wal.Record, 0, len(recovered)-cut)
	rec, err := anchorsRecord(st.anchors, st.epoch, now)
	if err != nil {
		return err
	}
	pending = append(pending, rec)
	for i, r := range recovered {
		if i <= cut {
			continue // superseded by the recorded re-anchoring
		}
		switch r.Type {
		case wal.TypeRevocation, wal.TypeIdentityRevocation, wal.TypeGroupLink,
			wal.TypeDelegation, wal.TypeGroupGraphLink:
			pending = append(pending, wal.Record{Type: r.Type, At: now, Body: r.Body})
		}
	}
	for i, r := range pending {
		if _, err := j.Append(r, i == len(pending)-1); err != nil {
			return fmt.Errorf("authz: rejournal %s: %w", r.Type, err)
		}
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
// wal.Dump can read it without knowing the full shape.
type anchorsBody struct {
	Epoch   uint64      `json:"epoch"`
	Anchors wireAnchors `json:"anchors"`
}

func anchorsRecord(a TrustAnchors, epoch uint64, at clock.Time) (wal.Record, error) {
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
	body, err := json.Marshal(anchorsBody{Epoch: epoch, Anchors: w})
	if err != nil {
		return wal.Record{}, fmt.Errorf("authz: encode anchors record: %w", err)
	}
	return wal.Record{Type: wal.TypeAnchors, At: at, Body: body}, nil
}

func decodeAnchors(body json.RawMessage) (TrustAnchors, uint64, error) {
	var b anchorsBody
	if err := json.Unmarshal(body, &b); err != nil {
		return TrustAnchors{}, 0, fmt.Errorf("authz: decode anchors record: %w", err)
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
		return TrustAnchors{}, 0, fmt.Errorf("authz: anchors record AA key: %w", err)
	}
	for name, ki := range b.Anchors.CAKeys {
		if a.CAKeys[name], err = ki.PublicKey(); err != nil {
			return TrustAnchors{}, 0, fmt.Errorf("authz: anchors record CA %s key: %w", name, err)
		}
	}
	if b.Anchors.RAName != "" {
		if a.RAKey, err = b.Anchors.RAKey.PublicKey(); err != nil {
			return TrustAnchors{}, 0, fmt.Errorf("authz: anchors record RA key: %w", err)
		}
	}
	return a, b.Epoch, nil
}

// certRecord wraps a signed certificate as a WAL record in its JSON
// journal form (pki.Marshal).
func certRecord[T any](typ wal.Type, sc pki.Signed[T], at clock.Time) (*wal.Record, error) {
	body, err := pki.Marshal(sc)
	if err != nil {
		return nil, err
	}
	return &wal.Record{Type: typ, At: at, Body: body}, nil
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
// is attached, appends it as a WAL audit record on the group-commit path
// (wait=false). The WAL keeps text, so a journaled entry's derivation is
// rendered here, once, for both.
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
	// anchors and applies only the belief mutations recorded after the
	// last anchors record — matching live semantics, where a re-anchoring
	// rebuilds the belief set and re-issues certificates. Use when the
	// whole authority stack restarted with new keys (the daemon).
	ReplayBeliefs
)

// ReplayReport summarizes a replay.
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
	// superseded by that re-anchoring (live rekeys re-issue certificates
	// and rebuild beliefs from scratch).
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
			if policy == ReplayExact {
				err = s.replayRecord(r)
			}
		case wal.TypeAudit:
			rep.AuditEntries++
			var e audit.Entry
			if err = json.Unmarshal(r.Body, &e); err == nil && s.log != nil {
				s.log.Record(e)
			}
		default:
			switch n := rep.count(r.Type); {
			case n == nil:
				err = fmt.Errorf("unknown record type %q", r.Type)
			case i < cut: // superseded (ReplayBeliefs only)
				rep.Skipped++
			default:
				*n++
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

// count returns the report's counter for a belief-mutation record type,
// nil for any other type.
func (r *ReplayReport) count(t wal.Type) *int {
	switch t {
	case wal.TypeRevocation:
		return &r.Revocations
	case wal.TypeIdentityRevocation:
		return &r.IdentityRevocations
	case wal.TypeGroupLink:
		return &r.GroupLinks
	case wal.TypeDelegation:
		return &r.Delegations
	case wal.TypeGroupGraphLink:
		return &r.GroupGraphLinks
	}
	return nil
}

// replayRecord applies one recorded mutation — the one replay function.
// An anchors record re-anchors at its recorded epoch. A belief record is
// idealized with the live path's pki idealizer; a logic.RuleJournaled
// leaf stands in for the derivation the certificate passed when first
// accepted, and logic.Engine.Install concludes from it at the record's
// timestamp — not at the clock, which on a follower has already moved
// past the record.
func (s *Server) replayRecord(r wal.Record) error {
	if r.Type == wal.TypeAnchors {
		anchors, epoch, err := decodeAnchors(r.Body)
		if err != nil {
			return err
		}
		return s.applyReanchor(anchors, &epoch)
	}
	cert, err := idealizeRecord(r)
	if err != nil {
		return err
	}
	body := certBody(cert)
	return s.mutate(func(_ *state, eng *logic.Engine) (*wal.Record, error) {
		leaf := eng.Proof().Append(logic.RuleJournaled, nil, body, r.At, fmt.Sprintf("wal seq %d", r.Seq))
		_, _, err := eng.Install(body, []int{leaf}, r.At)
		return nil, err
	})
}

// idealizeRecord decodes a belief record's certificate and idealizes it
// with the pki idealizer its live derivation used.
func idealizeRecord(r wal.Record) (logic.Signed, error) {
	switch r.Type {
	case wal.TypeRevocation:
		return idealized(r.Body, pki.IdealizeRevocation)
	case wal.TypeIdentityRevocation:
		return idealized(r.Body, pki.IdealizeIdentityRevocation)
	case wal.TypeGroupLink:
		return idealized(r.Body, pki.IdealizeGroupLink)
	case wal.TypeDelegation:
		return idealized(r.Body, pki.IdealizeDelegation)
	case wal.TypeGroupGraphLink:
		return idealized(r.Body, pki.IdealizeGroupGraphLink)
	}
	return logic.Signed{}, fmt.Errorf("no belief mutation for record type %q", r.Type)
}

func idealized[T any](body []byte, idealize func(pki.Signed[T]) logic.Signed) (logic.Signed, error) {
	sc, err := pki.Unmarshal[T](body)
	if err != nil {
		return logic.Signed{}, err
	}
	return idealize(sc), nil
}

// certBody unwraps an idealized certificate ⟦I says_t φ⟧_K to its body φ;
// nil for any other shape, which Install refuses.
func certBody(c logic.Signed) logic.Formula {
	mf, _ := c.X.(logic.MsgFormula)
	says, _ := mf.F.(logic.Says)
	body, _ := says.X.(logic.MsgFormula)
	return body.F
}
