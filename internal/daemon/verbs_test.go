package daemon

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/replication"
)

// TestEveryVerbOverTheWire drives every command verb of the writer and
// of a follower through Dial → TCP → pipeline and checks that each
// reply's fields arrive as the handler produced them: OK, the Detail
// line, and Data — raw bytes a JSON envelope would have rewritten, the
// signed request that must still parse and authorize, and the large
// audit and stats bodies.
func TestEveryVerbOverTheWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := New(Config{
		Domains:       []string{"D1", "D2", "D3"},
		Users:         []string{"alice", "bob", "carol"},
		Metrics:       obs.NewRegistry(),
		DataDir:       t.TempDir(),
		Replicate:     true,
		ReplHeartbeat: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	wnode, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{Name: "f1", WriterAddr: wnode.Addr(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fnode, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stop := context.WithCancel(context.Background())
	served := make(chan error, 2)
	go func() { served <- d.Serve(serveCtx, wnode) }()
	go func() { served <- f.Serve(serveCtx, fnode) }()
	defer func() {
		stop()
		wnode.Close()
		fnode.Close()
		<-served
		<-served
	}()

	writer, err := Dial(ClientConfig{ServerAddr: wnode.Addr(), Name: "verbs-w", Resend: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	follower, err := Dial(ClientConfig{ServerAddr: fnode.Addr(), ServerName: "f1", Name: "verbs-f", Resend: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	call := func(c *Client, cmd Command) Reply {
		t.Helper()
		rep, err := c.Call(ctx, cmd)
		if err != nil {
			t.Fatalf("%s %s: %v", cmd.Cmd, cmd.Op, err)
		}
		return rep
	}
	// caughtUp waits until the follower has applied the writer's log and
	// its clock has reached the writer's (fresh certificates are "not
	// valid yet" on a follower still a heartbeat behind).
	caughtUp := func() {
		t.Helper()
		seq, now := d.wal.Seq(), d.alliance.Clock().Now()
		for {
			st := f.Applier().Status()
			if st.Ready && st.LastSeq >= seq && st.Clock >= now {
				return
			}
			select {
			case <-ctx.Done():
				t.Fatalf("follower stuck at %+v, want seq %d clock %v", st, seq, now)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}

	// Bytes JSON could not have carried unchanged: invalid UTF-8, a NUL,
	// and characters encoding/json escapes.
	content := "v2 \xff\xfe\x00 <&> \"q\"  "
	var signed string

	for _, step := range []struct {
		name   string
		to     *Client
		cmd    Command
		ok     bool
		detail string // substring of Reply.Detail
		check  func(t *testing.T, rep Reply)
	}{
		{"write", writer, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: content}, true, "approved via G_write [P-", nil},
		{"write below threshold", writer, Command{Cmd: "write", Signers: []string{"alice"}, Data: "x"}, false, "", nil},
		{"read", writer, Command{Cmd: "read", Signers: []string{"carol"}}, true, "approved via G_read", func(t *testing.T, rep Reply) {
			if rep.Data != content {
				t.Errorf("read returned %q, wrote %q", rep.Data, content)
			}
		}},
		{"sign", writer, Command{Cmd: "sign", Signers: []string{"carol"}}, true, "signed read request for G_read", func(t *testing.T, rep Reply) {
			var req authz.AccessRequest
			if err := json.Unmarshal([]byte(rep.Data), &req); err != nil {
				t.Fatalf("sign Data is not a JSON access request: %v", err)
			}
			signed = rep.Data
			caughtUp()
		}},
		{"authorize", follower, Command{Cmd: "authorize"}, true, "approved via G_read [f1-", func(t *testing.T, rep Reply) {
			// Object content reaches a follower with its snapshot, not
			// with the writer's later writes: some content, not ours.
			if rep.Data == "" || !strings.Contains(rep.Detail, "at epoch") {
				t.Errorf("authorize: %q / %q", rep.Detail, rep.Data)
			}
		}},
		{"mutate link", writer, Command{Cmd: "mutate", Op: "link", Group: "G_sub", Data: "G_write"}, true, "linked G_sub ⇒ G_write", nil},
		{"mutate delegate", writer, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"}, true, "delegated alice in G_read (depth 1, perms read)", nil},
		{"mutate delegate (chain)", writer, Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"}, true, "delegated bob in G_read", nil},
		{"read -delegated", writer, Command{Cmd: "read", Signers: []string{"bob"}, Delegated: true}, true, "approved via G_read", nil},
		{"mutate graph-link", writer, Command{Cmd: "mutate", Op: "graph-link", Group: "G_write", Data: "G_read:1"}, true, "graph-linked G_write ⇒ G_read (depth 1)", nil},
		{"mutate crl", writer, Command{Cmd: "mutate", Op: "crl"}, true, "published CRL", nil},
		{"mutate revoke (delegate)", writer, Command{Cmd: "mutate", Op: "revoke", Group: "G_read", Data: "alice"}, true, "revoked delegation of alice in G_read", nil},
		{"mutate revoke", writer, Command{Cmd: "mutate", Op: "revoke", Group: "G_read"}, true, "revoked G_read", nil},
		{"revoke", writer, Command{Cmd: "revoke"}, true, "revoked G_write", nil},
		{"mutate revoke-identity", writer, Command{Cmd: "mutate", Op: "revoke-identity", Data: "bob"}, true, "revoked identity of bob", nil},
		{"mutate reanchor", writer, Command{Cmd: "mutate", Op: "reanchor"}, true, "re-anchored at current key epoch", nil},
		{"mutate (unknown verb)", writer, Command{Cmd: "mutate", Op: "fly"}, false, `unknown mutation verb "fly" (one of `, nil},
		{"join", writer, Command{Cmd: "join", Domain: "D4"}, true, "(server re-anchored)", nil},
		{"leave", writer, Command{Cmd: "leave", Domain: "D4"}, true, "(server re-anchored)", nil},
		{"audit", writer, Command{Cmd: "audit"}, true, "", func(t *testing.T, rep Reply) {
			if want := d.Handle(ctx, Command{Cmd: "audit"}).Data; rep.Data != want || !strings.Contains(rep.Data, "[P-000001]") {
				t.Errorf("audit over the wire (%d bytes) differs from the handler's (%d bytes)", len(rep.Data), len(want))
			}
		}},
		{"stats", writer, Command{Cmd: "stats"}, true, "", func(t *testing.T, rep Reply) {
			var snap obs.Snapshot
			if err := json.Unmarshal([]byte(rep.Data), &snap); err != nil {
				t.Fatalf("stats Data (%d bytes): %v", len(rep.Data), err)
			}
			if got := snap.CounterValue(`daemon_commands_total{cmd="write"}`); got != 2 {
				t.Errorf(`stats: daemon_commands_total{cmd="write"} = %d, want 2`, got)
			}
		}},
		{"follower audit", follower, Command{Cmd: "audit"}, true, "", func(t *testing.T, rep Reply) {
			if !strings.Contains(rep.Data, "[f1-000001]") {
				t.Errorf("follower audit lacks its decision: %q", rep.Data)
			}
		}},
		{"follower stats", follower, Command{Cmd: "stats"}, true, "", func(t *testing.T, rep Reply) {
			var snap obs.Snapshot
			if err := json.Unmarshal([]byte(rep.Data), &snap); err != nil {
				t.Fatalf("follower stats Data (%d bytes): %v", len(rep.Data), err)
			}
			if got := snap.CounterValue(`daemon_commands_total{cmd="authorize"}`); got != 1 {
				t.Errorf(`follower stats: daemon_commands_total{cmd="authorize"} = %d, want 1`, got)
			}
		}},
		{"replstatus", follower, Command{Cmd: "replstatus"}, true, "", func(t *testing.T, rep Reply) {
			var st replication.Status
			if err := json.Unmarshal([]byte(rep.Data), &st); err != nil || !st.Ready {
				t.Errorf("replstatus %q: %v", rep.Data, err)
			}
		}},
		{"follower write", follower, Command{Cmd: "write", Signers: []string{"alice", "bob"}, Data: "x"}, false, "read-only follower: write must go to the writer", nil},
	} {
		if step.cmd.Cmd == "authorize" {
			step.cmd.Data = signed
		}
		rep := call(step.to, step.cmd)
		if rep.OK != step.ok || !strings.Contains(rep.Detail, step.detail) {
			t.Fatalf("%s: reply %+v, want ok=%v detail containing %q", step.name, rep, step.ok, step.detail)
		}
		if rep.ID == "" {
			t.Errorf("%s: reply without its command's ID", step.name)
		}
		if step.check != nil {
			step.check(t, rep)
		}
	}
}
