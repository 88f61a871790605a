package authz

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/wal"
)

// carryHistory journals a live history through three re-anchorings —
// under the same anchors, after a re-key, and under the same anchors
// again — with beliefs of every kind around them, and returns the live
// server and its journal.
func carryHistory(t *testing.T, f *fixture) (*Server, *memJournal) {
	t.Helper()
	live, _, j := f.journaledServer(t)
	ctx := context.Background()
	long := clock.NewInterval(50, 5000)
	apply := func(m Mutation) {
		t.Helper()
		if err := live.Apply(ctx, m); err != nil {
			t.Fatalf("apply %s: %v", m.Verb(), err)
		}
		f.clk.Tick()
	}
	link, err := f.est.AA.IssueGroupLink("G3", "G0", long)
	if err != nil {
		t.Fatal(err)
	}
	apply(GroupLink{Cert: link})
	apply(Delegation{Cert: f.issueDelegation(t, "", "User_E4", "G0", 1, "read")})
	rev, err := f.ra.RevokeSubject("G1", f.bound("User_E5")[0], f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	apply(Revocation{Cert: rev})
	idRev, err := f.cas[f.caOf("User_E6")].RevokeIdentity("User_E6", f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	apply(IdentityRevocation{Cert: idRev})
	apply(Reanchor{Anchors: f.anchors(0)})
	edge, err := f.est.AA.IssueGroupGraphLink("G4", "G3", 1, long)
	if err != nil {
		t.Fatal(err)
	}
	apply(GroupGraphLink{Cert: edge})
	apply(Reanchor{Anchors: f.rekeyedAnchors(t)})
	rev2, err := f.ra.RevokeSubject("G2", f.bound("User_E7")[0], f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	apply(Revocation{Cert: rev2})
	apply(Reanchor{Anchors: f.anchors(0)})
	return live, j
}

// TestReanchoringCarriesWhatItsAnchorsVerify: a re-anchoring under the
// same AA key carries every belief; one after a re-key carries only what
// the RA and the CAs signed, since the new AA key verifies nothing the
// old one signed.
func TestReanchoringCarriesWhatItsAnchorsVerify(t *testing.T) {
	f := newCacheFixture(t)
	_, j := carryHistory(t, f)
	var carried []int
	for _, r := range j.history() {
		if r.Type == wal.TypeAnchors {
			_, _, c, err := decodeAnchors(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			carried = append(carried, len(c))
		}
	}
	// Genesis; same anchors (link, delegation, revocation, identity
	// revocation); re-key (the revocation and the identity revocation);
	// same anchors again (those two and the later revocation).
	if want := []int{0, 4, 2, 3}; fmt.Sprint(carried) != fmt.Sprint(want) {
		t.Errorf("anchors records carried %v beliefs, want %v", carried, want)
	}
}

// TestReplicaPublishesCarriedBeliefsWithTheEpoch: a follower applying a
// re-anchoring publishes one snapshot, which already holds every belief
// the anchors record carries — no reader sees the new epoch without them.
func TestReplicaPublishesCarriedBeliefsWithTheEpoch(t *testing.T) {
	f := newCacheFixture(t)
	live, j := carryHistory(t, f)
	hist := j.history()
	last := len(hist) - 1
	if hist[last].Type != wal.TypeAnchors {
		t.Fatalf("history ends with %s, want the last re-anchoring", hist[last].Type)
	}
	fclk := clock.New(0)
	follower, _, err := NewReplica("P", fclk, diffStore(t, fclk), nil, hist[:last])
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	follower.Instrument(reg)
	if _, err := follower.ApplyReplicated(hist[last:]); err != nil {
		t.Fatal(err)
	}
	if swaps := reg.Counter(MetricSnapshotSwaps).Value(); swaps != 1 {
		t.Errorf("the re-anchoring published %d snapshots, want 1", swaps)
	}
	requireView(t, "follower after the re-anchoring", viewOf(follower), viewOf(live))
}

// TestEveryCompactionPointIsAReplicaHistory: wherever a log is compacted
// (CompactPolicy, which keeps older audit records ahead of the last
// anchors record), a replica of the compacted log reaches the epoch,
// watermark and belief set of a replica of the whole log.
func TestEveryCompactionPointIsAReplicaHistory(t *testing.T) {
	f := newCacheFixture(t)
	live, j := carryHistory(t, f)
	// Audit records between the belief records, as a serving writer's
	// log holds them.
	var hist []wal.Record
	for _, r := range j.history() {
		hist = append(hist, r, wal.Record{Type: wal.TypeAudit, At: r.At, Body: []byte(`{}`)})
	}
	replica := func(recs []wal.Record) beliefView {
		t.Helper()
		clk := clock.New(0)
		s, _, err := NewReplica("P", clk, diffStore(t, clk), nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		return viewOf(s)
	}
	for k := 1; k <= len(hist); k++ {
		compacted := wal.CompactPolicy(-1)(hist[:k])
		if start, err := wal.StateStart(compacted); err != nil || compacted[start].Type != wal.TypeAnchors {
			t.Fatalf("compaction after %d records: %v", k, err)
		}
		requireView(t, fmt.Sprintf("replica of the log compacted after %d records", k), replica(compacted), replica(hist[:k]))
	}
	requireView(t, "replica of the compacted log", replica(wal.CompactPolicy(-1)(hist)), viewOf(live))
}

// TestReanchoringDropsWhatCanDecideNothing: a re-anchoring under the
// same anchors does not carry a link past its validity, a delegation to
// a departed user, or the chain link that extended it, so the held
// beliefs shrink; what can still decide carries, and the anchors record
// holds exactly that.
func TestReanchoringDropsWhatCanDecideNothing(t *testing.T) {
	f := newCacheFixture(t)
	live, _, j := f.journaledServer(t)
	ctx := context.Background()
	now := f.clk.Now()
	apply := func(m Mutation) {
		t.Helper()
		if err := live.Apply(ctx, m); err != nil {
			t.Fatalf("apply %s: %v", m.Verb(), err)
		}
	}
	for _, validity := range []clock.Interval{clock.NewInterval(50, now.Add(5)), clock.NewInterval(50, 5000)} {
		link, err := f.est.AA.IssueGroupLink("G3", "G0", validity)
		if err != nil {
			t.Fatal(err)
		}
		apply(GroupLink{Cert: link})
	}
	apply(Delegation{Cert: f.issueDelegation(t, "", "User_E4", "G0", 1, "read")})
	apply(Delegation{Cert: f.issueDelegation(t, "User_E4", "User_E5", "G0", 0, "read")})
	rev, err := f.ra.RevokeSubject("G1", f.bound("User_E6")[0], now)
	if err != nil {
		t.Fatal(err)
	}
	apply(Revocation{Cert: rev})
	if n := len(live.state.Load().held); n != 5 {
		t.Fatalf("%d held beliefs before the re-anchoring, want 5", n)
	}
	f.clk.Advance(10)
	apply(Reanchor{Anchors: f.anchors(0), Departed: f.bound("User_E4")})
	var carried []wal.Type
	for _, r := range live.state.Load().held {
		carried = append(carried, r.Type)
	}
	if want := []wal.Type{wal.TypeGroupLink, wal.TypeRevocation}; fmt.Sprint(carried) != fmt.Sprint(want) {
		t.Errorf("the re-anchoring carried %v, want %v", carried, want)
	}
	hist := j.history()
	_, _, rec, err := decodeAnchors(hist[len(hist)-1].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(carried) {
		t.Errorf("the anchors record carries %d beliefs, the snapshot holds %d", len(rec), len(carried))
	}
}

// TestCheckReanchorBoundsTheAnchorsRecord: with a journal attached, held
// beliefs too large for one anchors record refuse the re-anchoring up
// front; without one there is no record to bound.
func TestCheckReanchorBoundsTheAnchorsRecord(t *testing.T) {
	f := newCacheFixture(t)
	live, _, _ := f.journaledServer(t)
	if err := live.CheckReanchor(); err != nil {
		t.Fatalf("an empty belief set: %v", err)
	}
	st := live.state.Load()
	st.held = append(st.held, wal.Record{Type: wal.TypeRevocation, Body: make([]byte, wal.MaxRecordBytes)})
	if err := live.CheckReanchor(); !errors.Is(err, errCarryTooLarge) {
		t.Errorf("held beliefs past the record bound: %v, want %v", err, errCarryTooLarge)
	}
	unjournaled := NewServer("P", f.clk, f.anchors(0), diffStore(t, f.clk), nil)
	unjournaled.state.Load().held = st.held
	if err := unjournaled.CheckReanchor(); err != nil {
		t.Errorf("without a journal: %v", err)
	}
}
