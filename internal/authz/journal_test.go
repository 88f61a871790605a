package authz

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/wal"
)

// readRequest builds the 1-of-3 G_read request signed by one user.
func (f *fixture) readRequest(t *testing.T, user string) AccessRequest {
	t.Helper()
	req := AccessRequest{Threshold: f.readAC}
	req.Identities = append(req.Identities, f.idCerts[user])
	r, err := SignRequest(user, f.clk.Now(), acl.Read, "O", nil, f.users[user])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	return req
}

// openWAL opens a wal.Log in dir, failing the test on error.
func openWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if len(recs) != 0 {
		t.Fatalf("fresh wal holds %d records", len(recs))
	}
	return l
}

// reopenWAL reopens dir and returns the log plus the recovered records.
func reopenWAL(t *testing.T, dir string) (*wal.Log, []wal.Record) {
	t.Helper()
	l, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, recs
}

// TestCrashRecoveryExactReplay is the crash-recovery test of the
// durability design: a server journals an approval and a revocation,
// "crashes", and a fresh server replayed from the data dir must (a) end
// at the identical epoch/watermark, (b) deny the request the revocation
// targeted, and (c) hold the pre-crash audit history.
func TestCrashRecoveryExactReplay(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	log1 := audit.NewLog()
	srv1 := f.newServer(log1)
	l1 := openWAL(t, dir)
	if err := srv1.SetJournal(l1); err != nil {
		t.Fatal(err)
	}

	req := f.writeRequest(t, []byte("before crash"), "User_D1", "User_D2")
	if _, err := srv1.Authorize(context.Background(), req); err != nil {
		t.Fatalf("pre-crash authorize: %v", err)
	}
	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatalf("process revocation: %v", err)
	}
	if _, err := srv1.Authorize(context.Background(), req); err == nil {
		t.Fatal("pre-crash request approved after revocation")
	}
	pre := srv1.Snapshot()
	preAudit := log1.Len()
	if err := l1.Close(); err != nil { // crash: the process is gone
		t.Fatal(err)
	}

	// Recovery: fresh server over the same trust material, replayed from
	// the data dir.
	log2 := audit.NewLog()
	srv2 := f.newServer(log2)
	l2, recs := reopenWAL(t, dir)
	rep, err := srv2.Replay(recs, ReplayExact)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := srv2.SetJournal(l2); err != nil {
		t.Fatal(err)
	}

	if rep.Epoch != pre.Epoch || rep.Watermark != pre.Watermark {
		t.Fatalf("replayed to epoch %d watermark %d, pre-crash epoch %d watermark %d",
			rep.Epoch, rep.Watermark, pre.Epoch, pre.Watermark)
	}
	if rep.Revocations != 1 || rep.Anchors != 1 {
		t.Fatalf("unexpected replay report: %+v", rep)
	}
	if log2.Len() != preAudit {
		t.Fatalf("replayed audit log has %d entries, pre-crash had %d", log2.Len(), preAudit)
	}
	if _, err := srv2.Authorize(context.Background(), req); err == nil {
		t.Fatal("revoked request approved after crash recovery")
	} else if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("post-recovery denial for the wrong reason: %v", err)
	}
	// Reads (G_read, never revoked) still work.
	readReq := f.readRequest(t, "User_D3")
	if _, err := srv2.Authorize(context.Background(), readReq); err != nil {
		t.Fatalf("post-recovery read denied: %v", err)
	}
}

// TestSetJournalWritesGenesisOnce: the genesis anchors record is written
// exactly once per data dir, not on every restart.
func TestSetJournalWritesGenesisOnce(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	srv1 := f.newServer(nil)
	l1 := openWAL(t, dir)
	if err := srv1.SetJournal(l1); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	srv2 := f.newServer(nil)
	l2, recs := reopenWAL(t, dir)
	if len(recs) != 1 || recs[0].Type != wal.TypeAnchors {
		t.Fatalf("recovered %d records (want 1 anchors): %+v", len(recs), recs)
	}
	if _, err := srv2.Replay(recs, ReplayExact); err != nil {
		t.Fatal(err)
	}
	if err := srv2.SetJournal(l2); err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != 1 {
		t.Fatalf("restart appended a duplicate genesis record (seq %d)", got)
	}
}

// TestReplayBeliefsSkipsSupersededMutations: mutations recorded before
// the last re-anchoring were cleared by that rekey (certificates are
// re-issued); ReplayBeliefs must apply only the ones after it.
func TestReplayBeliefsSkipsSupersededMutations(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	srv1 := f.newServer(nil)
	l1 := openWAL(t, dir)
	if err := srv1.SetJournal(l1); err != nil {
		t.Fatal(err)
	}
	readRev, err := f.ra.Revoke(f.readAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(context.Background(), Revocation{Cert: readRev}); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(context.Background(), Reanchor{Anchors: f.anchors(0)}); err != nil { // rekey clears it
		t.Fatal(err)
	}
	writeRev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Apply(context.Background(), Revocation{Cert: writeRev}); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	srv2 := f.newServer(nil)
	_, recs := reopenWAL(t, dir)
	rep, err := srv2.Replay(recs, ReplayBeliefs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Revocations != 1 {
		t.Fatalf("report: %+v, want 1 skipped (pre-rekey) and 1 applied", rep)
	}
	if _, err := srv2.Authorize(context.Background(), f.writeRequest(t, []byte("post"), "User_D1", "User_D2")); err == nil {
		t.Fatal("post-rekey revocation not applied")
	}
	if _, err := srv2.Authorize(context.Background(), f.readRequest(t, "User_D2")); err != nil {
		t.Fatalf("pre-rekey revocation wrongly applied to reads: %v", err)
	}
}

// failingJournal rejects every append.
type failingJournal struct{}

func (failingJournal) Append(wal.Record, bool) (uint64, error) {
	return 0, errors.New("disk full")
}
func (failingJournal) Empty() bool { return false }

// TestJournalFailureAbortsMutation: write-ahead means a mutation that
// cannot be made durable is not applied — the snapshot stays put.
func TestJournalFailureAbortsMutation(t *testing.T) {
	f := newFixture(t)
	srv := f.newServer(nil)
	if err := srv.SetJournal(failingJournal{}); err != nil {
		t.Fatal(err)
	}
	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot()
	if err := srv.Apply(context.Background(), Revocation{Cert: rev}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("mutation with failing journal: %v, want journal error", err)
	}
	after := srv.Snapshot()
	if after.Watermark != before.Watermark {
		t.Fatalf("snapshot published despite journal failure (watermark %d → %d)", before.Watermark, after.Watermark)
	}
	// The write still succeeds: the revocation was never applied.
	if _, err := srv.Authorize(context.Background(), f.writeRequest(t, []byte("x"), "User_D1", "User_D2")); err != nil {
		t.Fatalf("request denied by an unapplied revocation: %v", err)
	}
}

// TestReplayAfterJournalRejected: replay into a journaling server would
// double-record history.
func TestReplayAfterJournalRejected(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	srv := f.newServer(nil)
	l := openWAL(t, dir)
	if err := srv.SetJournal(l); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Replay(nil, ReplayExact); err == nil {
		t.Fatal("Replay after SetJournal accepted")
	}
}

// beliefView is what a rebuild must reproduce of a server's belief state:
// its versions, the canonical keys of its decision-relevant beliefs and
// its revocation index.
type beliefView struct {
	epoch, watermark uint64
	beliefs          []string
	revocations      []string
}

func viewOf(s *Server) beliefView {
	sn := s.Snapshot()
	v := beliefView{epoch: sn.Epoch, watermark: sn.Watermark}
	for _, e := range sn.Beliefs() {
		switch e.F.(type) {
		case logic.KeySpeaksFor, logic.MemberOf, logic.GroupSpeaksFor, logic.GroupGraphEdge, logic.Delegates, logic.Not:
			v.beliefs = append(v.beliefs, e.F.String())
		}
	}
	sort.Strings(v.beliefs)
	for _, r := range sn.Engine().Store().Revocations() {
		v.revocations = append(v.revocations, fmt.Sprintf("%s in %s from %s", r.Who, r.G.Name, r.EffectiveAt))
	}
	return v
}

// requireView fails unless got reproduces want.
func requireView(t *testing.T, how string, got, want beliefView) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s diverges from the live server\nrebuilt: %+v\nlive:    %+v", how, got, want)
	}
}

// requireJournaledProof fails unless every step of s's base proof after
// the anchors' assumptions is a RuleJournaled leaf or a step
// logic.Engine.Install appended on such leaves (directly, or through the
// chain step a composition cites), and there are leaves steps of them.
func requireJournaledProof(t *testing.T, s *Server, how string, leaves int) {
	t.Helper()
	installer := map[string]bool{
		"A3 (localized belief)":     true,
		logic.RuleGraphEdge:         true,
		logic.RuleDelegationCert:    true,
		logic.RuleDelegationCompose: true,
		logic.RuleRevocation:        true,
	}
	rule := make(map[int]string)
	anchors, seen := true, 0
	for _, st := range s.Snapshot().Proof().Steps() {
		rule[st.ID] = st.Rule
		switch {
		case st.Rule == logic.RuleAssumption && anchors:
			continue
		case st.Rule == logic.RuleJournaled && len(st.Premises) == 0 && strings.HasPrefix(st.Note, "wal seq "):
			seen++
		case installer[st.Rule] && len(st.Premises) > 0:
			for _, p := range st.Premises {
				if rule[p] != logic.RuleJournaled && !installer[rule[p]] {
					t.Fatalf("%s: step %d (%s) cites step %d (%s)", how, st.ID, st.Rule, p, rule[p])
				}
			}
		default:
			t.Fatalf("%s: step %d is neither a journaled leaf nor an installer step: %s", how, st.ID, st)
		}
		anchors = false
	}
	if seen != leaves {
		t.Fatalf("%s: %d journaled leaves, want one per replayed belief record (%d)", how, seen, leaves)
	}
}

// TestReplayInstallsLiveBeliefs: one journaled live history holding every
// variant — a group link, a graph edge, a root grant and two chain
// extensions, a membership revocation, a CRL with two fresh entries, an
// identity revocation, a re-anchoring, and mutations after it — is
// rebuilt three ways: crash recovery (Replay, ReplayExact), a replica of
// the whole log, and a replica of a prefix advanced by ApplyReplicated
// after its clock has passed the tail, as the follower's applier does.
// Each must hold the live server's versions, decision-relevant beliefs and
// revocations, and every step it replayed must be a journaled leaf or
// what Install concluded from one.
func TestReplayInstallsLiveBeliefs(t *testing.T) {
	f := newCacheFixture(t)
	ctx := context.Background()
	long := clock.NewInterval(50, 5000)
	live, _, j := f.journaledServer(t)
	apply := func(m Mutation) {
		t.Helper()
		if err := live.Apply(ctx, m); err != nil {
			t.Fatalf("apply %s: %v", m.Verb(), err)
		}
		f.clk.Tick()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	link, err := f.est.AA.IssueGroupLink("G3", "G0", long)
	must(err)
	apply(GroupLink{Cert: link})
	edge, err := f.est.AA.IssueGroupGraphLink("G4", "G3", 1, long)
	must(err)
	apply(GroupGraphLink{Cert: edge})
	apply(Delegation{Cert: f.issueDelegation(t, "", "User_E4", "G0", 2, "read,write")})
	apply(Delegation{Cert: f.issueDelegation(t, "User_E4", "User_E5", "G0", 1, "read")})
	prefix, atPrefix := len(j.history()), viewOf(live)
	apply(Delegation{Cert: f.issueDelegation(t, "User_E5", "User_E6", "G0", 0, "read")})
	ac, err := f.est.AA.IssueThreshold("G1", 1, f.bound("User_D1", "User_D2"), long)
	must(err)
	rev, err := f.ra.Revoke(ac, f.clk.Now())
	must(err)
	apply(Revocation{Cert: rev})
	// Two entries the RA records without delivering; the CRL also lists
	// the delivered revocation, which the server already believes.
	for _, u := range []string{"User_E7", "User_E8"} {
		_, err := f.ra.RevokeSubject("G2", f.bound(u)[0], f.clk.Now())
		must(err)
	}
	crl, err := f.ra.PublishCRL()
	must(err)
	if applied, err := live.applyCRL(crl); err != nil || applied != 2 {
		t.Fatalf("CRL applied %d entries (%v), want the 2 fresh ones", applied, err)
	}
	f.clk.Tick()
	idRev, err := f.cas[f.caOf("User_E9")].RevokeIdentity("User_E9", f.clk.Now())
	must(err)
	apply(IdentityRevocation{Cert: idRev})

	apply(Reanchor{Anchors: f.anchors(0)})
	beforeEpoch := len(j.history())
	link2, err := f.est.AA.IssueGroupLink("G5", "G1", long)
	must(err)
	apply(GroupLink{Cert: link2})
	apply(Delegation{Cert: f.issueDelegation(t, "", "User_D3", "G2", 1, "read")})
	apply(Delegation{Cert: f.issueDelegation(t, "User_D3", "User_E4", "G2", 0, "read")})
	rev2, err := f.ra.RevokeSubject("G0", f.bound("User_D1")[0], f.clk.Now())
	must(err)
	apply(Revocation{Cert: rev2})
	apply(f.revokeKeyOf(t, "CA2", "User_D2", f.users["User_D2"].Public()))

	hist, want := j.history(), viewOf(live)
	leaves := len(hist) - beforeEpoch // belief records after the last anchors
	if want.epoch != 1 || want.watermark != uint64(leaves) {
		t.Fatalf("live history ends at epoch %d watermark %d, want 1 and %d", want.epoch, want.watermark, leaves)
	}

	recovered := NewServer("P", clock.New(0), f.anchors(0), diffStore(t, f.clk), nil)
	rep, err := recovered.Replay(hist, ReplayExact)
	must(err)
	if rep.Anchors != 2 || rep.GroupLinks != 2 || rep.GroupGraphLinks != 1 || rep.Delegations != 5 ||
		rep.Revocations != 4 || rep.IdentityRevocations != 2 || rep.Skipped != 0 {
		t.Fatalf("replay report %+v does not cover the history", rep)
	}
	requireView(t, "Replay(ReplayExact)", viewOf(recovered), want)
	requireJournaledProof(t, recovered, "Replay(ReplayExact)", leaves)

	whole, _, err := NewReplica("P", clock.New(0), diffStore(t, f.clk), nil, hist)
	must(err)
	requireView(t, "NewReplica(whole log)", viewOf(whole), want)
	requireJournaledProof(t, whole, "NewReplica(whole log)", leaves)

	fclk := clock.New(0)
	follower, _, err := NewReplica("P", fclk, diffStore(t, fclk), nil, hist[:prefix])
	must(err)
	requireView(t, "NewReplica(prefix)", viewOf(follower), atPrefix)
	fclk.AdvanceTo(hist[len(hist)-1].At + 10)
	_, err = follower.ApplyReplicated(hist[prefix:])
	must(err)
	requireView(t, "NewReplica(prefix) + ApplyReplicated(rest)", viewOf(follower), want)
	requireJournaledProof(t, follower, "NewReplica(prefix) + ApplyReplicated(rest)", leaves)
}
