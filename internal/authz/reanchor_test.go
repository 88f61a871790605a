package authz

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestAcceptCarryReplayAgreePerKind: for one certificate of each belief
// kind (and each signer a revocation may have), what Apply accepts under
// anchors A a re-anchoring to A carries with the same belief, and a
// replica of the log holds the same belief after the accept and after
// the re-anchoring. Each carry-only filter drops exactly its own case:
// past validity the links and the delegation, a departed delegate the
// delegation, an anchor key the identity revocation that names one. After
// an AA re-key the AA-signed kinds drop, and the RA- and CA-signed carry.
func TestAcceptCarryReplayAgreePerKind(t *testing.T) {
	f := newCacheFixture(t)
	ctx := context.Background()
	rekeyed := f.rekeyedAnchors(t)
	delegate := f.bound("User_E4")
	type kind struct {
		name string
		// issue returns the certificate as a mutation, valid until until
		// where the kind has a validity interval.
		issue  func(until clock.Time) Mutation
		byAA   bool // signed by the AA: a re-key drops it
		expiry bool // has a validity interval: past it, it drops
		// dropped by the filter named, under anchors and delegates
		// that would otherwise carry it.
		delegation, anchorKey bool
	}
	must := func(m Mutation, err error) Mutation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	kinds := []kind{
		{name: "revocation by the RA", issue: func(clock.Time) Mutation {
			rev, err := f.ra.RevokeSubject("G1", f.bound("User_E5")[0], f.clk.Now())
			return must(Revocation{Cert: rev}, err)
		}},
		{name: "revocation by the AA", byAA: true, issue: func(clock.Time) Mutation {
			rev, err := f.est.AA.RevokeThreshold(f.readAC, f.clk.Now())
			return must(Revocation{Cert: rev}, err)
		}},
		{name: "identity revocation", issue: func(clock.Time) Mutation {
			rev, err := f.cas[f.caOf("User_E6")].RevokeIdentity("User_E6", f.clk.Now())
			return must(IdentityRevocation{Cert: rev}, err)
		}},
		{name: "identity revocation of an anchor key", anchorKey: true, issue: func(clock.Time) Mutation {
			return f.revokeKeyOf(t, "CA1", "RA", f.ra.Public())
		}},
		{name: "group link", byAA: true, expiry: true, issue: func(until clock.Time) Mutation {
			link, err := f.est.AA.IssueGroupLink("G3", "G0", clock.NewInterval(50, until))
			return must(GroupLink{Cert: link}, err)
		}},
		{name: "delegation", byAA: true, expiry: true, delegation: true, issue: func(until clock.Time) Mutation {
			d, err := f.est.AA.IssueDelegation("", delegate[0], "G0", 1, "read", clock.NewInterval(50, until))
			return must(Delegation{Cert: d}, err)
		}},
		{name: "group-graph link", byAA: true, expiry: true, issue: func(until clock.Time) Mutation {
			edge, err := f.est.AA.IssueGroupGraphLink("G4", "G3", 1, clock.NewInterval(50, until))
			return must(GroupGraphLink{Cert: edge}, err)
		}},
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
	// certBeliefs is what v holds beyond a fresh server under anchors:
	// the certificate beliefs, and the revocation index.
	certBeliefs := func(v beliefView, anchors TrustAnchors) []string {
		base := viewOf(NewServer("P", f.clk, anchors, diffStore(t, f.clk), nil)).beliefs
		out := slices.DeleteFunc(slices.Clone(v.beliefs), func(b string) bool { return slices.Contains(base, b) })
		return append(out, v.revocations...)
	}
	// run accepts k's certificate on a fresh server, lets advance pass on
	// the clock, re-anchors with m and reports whether the belief was
	// carried, checking that a carried belief is the one accepted, a
	// dropped one is gone, and a replica agrees with the live server at
	// both points.
	run := func(k kind, until clock.Time, advance int64, m Reanchor) bool {
		t.Helper()
		live, _, j := f.journaledServer(t)
		if err := live.Apply(ctx, k.issue(until)); err != nil {
			t.Fatalf("%s: Apply under A: %v", k.name, err)
		}
		accepted := viewOf(live)
		if len(certBeliefs(accepted, f.anchors(0))) == 0 {
			t.Fatalf("%s: Apply accepted it, and the server holds no belief of it", k.name)
		}
		requireView(t, k.name+": replica after the accept", replica(j.history()), accepted)
		f.clk.Advance(advance)
		if err := live.Apply(ctx, m); err != nil {
			t.Fatalf("%s: re-anchoring: %v", k.name, err)
		}
		after := viewOf(live)
		requireView(t, k.name+": replica after the re-anchoring", replica(j.history()), after)
		carried := len(live.state.Load().held) == 1
		var want []string
		if carried {
			want = certBeliefs(accepted, f.anchors(0))
		}
		if got := certBeliefs(after, m.Anchors); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: carried=%v, but the re-anchoring holds the certificate beliefs %v, want %v", k.name, carried, got, want)
		}
		return carried
	}
	for _, k := range kinds {
		if got, want := run(k, 5000, 1, Reanchor{Anchors: f.anchors(0)}), !k.anchorKey; got != want {
			t.Errorf("%s: a re-anchoring to the same anchors carried it: %v, want %v", k.name, got, want)
		}
		if got, want := run(k, 5000, 1, Reanchor{Anchors: f.anchors(0), Departed: delegate}), !k.anchorKey && !k.delegation; got != want {
			t.Errorf("%s: with its delegate departed, carried: %v, want %v", k.name, got, want)
		}
		if got, want := run(k, 5000, 1, Reanchor{Anchors: rekeyed}), !k.anchorKey && !k.byAA; got != want {
			t.Errorf("%s: after an AA re-key, carried: %v, want %v", k.name, got, want)
		}
	}
	// Past validity last: the clock only advances.
	for _, k := range kinds {
		if got, want := run(k, f.clk.Now().Add(5), 10, Reanchor{Anchors: f.anchors(0)}), !k.anchorKey && !k.expiry; got != want {
			t.Errorf("%s: past its validity, carried: %v, want %v", k.name, got, want)
		}
	}
}
