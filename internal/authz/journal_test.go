package authz

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
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
