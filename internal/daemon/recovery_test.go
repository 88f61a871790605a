package daemon

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jointadmin/internal/wal"
)

// durableCfg is the standard demo daemon over a data directory.
func durableCfg(dir string) Config {
	return Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		DataDir:        dir,
	}
}

// TestDaemonCrashRecovery is the acceptance test for durable state: a
// daemon revokes the write certificate, "crashes", and a fresh daemon
// booted from the same data directory — with entirely regenerated
// authority keys — must still deny the write while reads keep working.
func TestDaemonCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := d1.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); !r.OK {
		t.Fatalf("pre-crash write: %+v", r)
	}
	if r := d1.Handle(ctx, Command{Cmd: "revoke"}); !r.OK {
		t.Fatalf("revoke: %+v", r)
	}
	if r := d1.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v3"}); r.OK {
		t.Fatal("pre-crash write approved after revocation")
	}
	if err := d1.Close(); err != nil { // crash: the process is gone
		t.Fatal(err)
	}

	d2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart from data dir: %v", err)
	}
	defer d2.Close()
	r := d2.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v4"})
	if r.OK {
		t.Fatal("restarted daemon approved a write revoked before the crash")
	}
	if !strings.Contains(r.Detail, "revoked") {
		t.Errorf("post-restart denial for the wrong reason: %+v", r)
	}
	if r := d2.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !r.OK {
		t.Fatalf("post-restart read: %+v", r)
	}
	// The pre-crash audit history replayed into the fresh log.
	if r := d2.Handle(ctx, Command{Cmd: "audit"}); !r.OK ||
		!strings.Contains(r.Data, "REVOCATION") || !strings.Contains(r.Data, "APPROVED") {
		t.Fatalf("replayed audit history missing pre-crash entries: %+v", r)
	}
}

// TestDaemonRecoveryTornTail: a crash mid-append leaves a torn final
// record; the daemon must start anyway (the torn suffix was never
// acknowledged) and keep every completed mutation.
func TestDaemonRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := d1.Handle(ctx, Command{Cmd: "revoke"}); !r.OK {
		t.Fatalf("revoke: %+v", r)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: a partial frame at the tail.
	f, err := os.OpenFile(filepath.Join(dir, wal.LogName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart with torn tail: %v", err)
	}
	defer d2.Close()
	if r := d2.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); r.OK {
		t.Fatal("revocation lost to tail truncation")
	}
}

// TestDaemonRecoveryCorruptionFailsClosed: mid-log corruption is not a
// torn write — state the daemon acknowledged is unreadable, so it must
// refuse to start rather than serve requests against silently partial
// beliefs.
func TestDaemonRecoveryCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r := d1.Handle(context.Background(), Command{Cmd: "revoke"}); !r.OK {
		t.Fatalf("revoke: %+v", r)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0x01 // flip one payload bit of the first record
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableCfg(dir)); err == nil {
		t.Fatal("daemon started over a corrupt log")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("refusal does not name the corruption: %v", err)
	}
}

// TestDaemonCompactionAcrossRestart: with an aggressive compaction bound
// the log folds into the snapshot after dynamics commands, and a restart
// from the compacted directory still enforces the revocation.
func TestDaemonCompactionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CompactBytes = 1 // compact after every dynamics command
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := d1.Handle(ctx, Command{Cmd: "join", Domain: "D4"}); !r.OK {
		t.Fatalf("join: %+v", r)
	}
	if r := d1.Handle(ctx, Command{Cmd: "revoke"}); !r.OK {
		t.Fatalf("revoke: %+v", r)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SnapshotName)); err != nil {
		t.Fatalf("compaction left no snapshot: %v", err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart from compacted dir: %v", err)
	}
	defer d2.Close()
	if r := d2.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"}); r.OK {
		t.Fatal("revocation lost across compaction + restart")
	}
	if r := d2.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !r.OK {
		t.Fatalf("post-restart read: %+v", r)
	}
}

// TestSnapshotEditFailsClosed: replay skips signature checks because
// every record is checksummed at rest, the compacted ones included. An
// edit of a compacted revocation's body in the snapshot — G_write
// renamed, so the revocation would name no group the write uses — must
// stop the restart, as the same edit in the log does, rather than let
// the revoked write through.
func TestSnapshotEditFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CompactBytes = 1 // the revocation lands in the snapshot
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := d1.Handle(ctx, Command{Cmd: "revoke"}); !r.OK {
		t.Fatalf("revoke: %+v", r)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rev := bytes.Index(data, []byte(`"type":"revocation"`))
	if rev < 0 {
		t.Fatal("the snapshot holds no revocation record")
	}
	g := bytes.Index(data[rev:], []byte("G_write"))
	if g < 0 {
		t.Fatal("the snapshot's revocation record does not name G_write")
	}
	copy(data[rev+g:], "G_wrhte")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err == nil {
		defer d2.Close()
		r := d2.Handle(ctx, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "v2"})
		t.Fatalf("daemon started over an edited snapshot; the revoked alice+bob write got %+v", r)
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("refusal does not name the corruption: %v", err)
	}
}
