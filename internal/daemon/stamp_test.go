package daemon

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFollowerStampNamesDecidedSnapshot: a replication frame applied
// between an authorize decision and its reply moves the follower's
// status, not the reply's stamp. The stamp names the snapshot the
// decision was made on.
func TestFollowerStampNamesDecidedSnapshot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	body := signedBy(ctx, t, d, "carol")
	waitCaughtUp(ctx, t, d, f)
	decided := f.Applier().Status()

	installed := false
	f.decided = func() {
		if installed {
			return
		}
		installed = true
		// A revocation on the writer: its record reaches the follower
		// and is installed while the decision waits for its reply.
		if rep := d.Handle(ctx, Command{Cmd: "revoke", Group: "G_write"}); !rep.OK {
			t.Fatalf("revoke: %+v", rep)
		}
		waitCaughtUp(ctx, t, d, f)
	}
	rep := f.Handle(ctx, Command{Cmd: "authorize", Data: body})
	if !installed {
		t.Fatal("the decided hook never ran")
	}
	if now := f.Applier().Status(); now.Watermark == decided.Watermark {
		t.Fatalf("the revocation was not installed before the reply (watermark still %d)", now.Watermark)
	}
	want := fmt.Sprintf("at epoch %d watermark %d", decided.Epoch, decided.Watermark)
	if !rep.OK || !strings.HasSuffix(rep.Detail, want) {
		t.Errorf("reply %+v: want an approval stamped %q, the snapshot it was decided on", rep, want)
	}
}
