package daemon

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/audit"
	"jointadmin/internal/wal"
)

// TestFollowerDoesNotPerformWrites: a follower approves a signed write
// as the writer would, says it did not perform it, and leaves its
// objects as the writer's: a signed read on the follower still returns
// the writer's content.
func TestFollowerDoesNotPerformWrites(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	write := d.Handle(ctx, Command{Cmd: "sign", Op: "write", Data: "follower-only", Signers: []string{"alice", "bob"}})
	read := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	if !write.OK || !read.OK {
		t.Fatalf("sign: %+v, %+v", write, read)
	}
	waitCaughtUp(ctx, t, d, f)
	rep := f.Handle(ctx, Command{Cmd: "authorize", Data: write.Data})
	if !rep.OK || !strings.HasPrefix(rep.Detail, "approved via G_write") || !strings.Contains(rep.Detail, "write not performed") {
		t.Fatalf("follower authorize of a write: %+v", rep)
	}
	want := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}})
	if !want.OK {
		t.Fatalf("writer read: %+v", want)
	}
	if got := f.Handle(ctx, Command{Cmd: "authorize", Data: read.Data}); !got.OK || got.Data != want.Data {
		t.Fatalf("follower read after its approved write = %+v, want the writer's content %q", got, want.Data)
	}
	if strings.Contains(want.Data, "follower-only") {
		t.Fatalf("the follower's write reached the writer: %q", want.Data)
	}
}

// TestSnapshotHandoffBoundsAuditHistory: a writer whose journaled
// decisions outgrow one frame still brings up a new follower — the
// handoff ships its state and only the newest audit records — and the
// follower then decides a signed read.
func TestSnapshotHandoffBoundsAuditHistory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := newReplicatingWriter(t)
	body, err := json.Marshal(audit.Entry{Outcome: audit.Approved, Server: "P", Reason: strings.Repeat("x", 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ { // 24 MiB of decisions, more than one frame holds
		if _, err := d.wal.Append(wal.Record{Type: wal.TypeAudit, Body: body}, false); err != nil {
			t.Fatal(err)
		}
	}
	_, f, _, _ := serveFleet(ctx, t, d)
	waitCaughtUp(ctx, t, d, f)
	read := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	waitCaughtUp(ctx, t, d, f)
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: read.Data}); !rep.OK {
		t.Fatalf("follower read after the handoff: %+v", rep)
	}
}
