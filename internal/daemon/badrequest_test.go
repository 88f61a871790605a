package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
)

// malformedRequests derives from a valid signed read request (JSON, no
// payload) the inputs the follower must answer bad_request without
// evaluating.
func malformedRequests(valid string) []struct{ name, data string } {
	at := regexp.MustCompile(`"at":(\d+)`)
	return []struct{ name, data string }{
		{"truncated", valid[:len(valid)/2]},
		{"trailing bytes", valid + " x"},
		{"unknown key", `{"extra":1,` + valid[1:]},
		{`case-folded "Identities"`, strings.Replace(valid, `"identities"`, `"Identities"`, 1)},
		{"string time", at.ReplaceAllString(valid, `"at":"$1"`)},
		{"1e3 time", at.ReplaceAllString(valid, `"at":1e3`)},
		{"bad base64 payload", strings.Replace(valid, `"op":"read",`, `"op":"read","payload":"!!!",`, 1)},
	}
}

// TestFollowerAuthorizeBadRequests drives the follower's bad_request
// branch through Follower.Handle: every malformed request is refused
// once under daemon_command_errors_total{kind="bad_request"} without
// reaching Authorize, and a hand-indented valid request is approved.
func TestFollowerAuthorizeBadRequests(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := New(Config{
		Domains:       []string{"D1", "D2", "D3"},
		Users:         []string{"alice", "bob", "carol"},
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
	reg := obs.NewRegistry()
	f, err := NewFollower(FollowerConfig{Name: "f1", WriterAddr: wnode.Addr(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	fnode, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stop := context.WithCancel(ctx)
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

	rep := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	if !rep.OK {
		t.Fatalf("sign: %+v", rep)
	}
	valid := rep.Data
	seq, now := d.wal.Seq(), d.alliance.Clock().Now()
	for st := f.Applier().Status(); !st.Ready || st.LastSeq < seq || st.Clock < now; st = f.Applier().Status() {
		select {
		case <-ctx.Done():
			t.Fatalf("follower stuck at %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}

	const badKey = `daemon_command_errors_total{cmd="authorize",kind="bad_request"}`
	counters := func() (bad, evaluated int64) {
		snap := reg.Snapshot()
		return snap.CounterValue(badKey), snap.CounterValue(authz.MetricRequests)
	}
	for _, tc := range malformedRequests(valid) {
		bad0, eval0 := counters()
		rep := f.Handle(ctx, Command{Cmd: "authorize", Data: tc.data})
		bad, eval := counters()
		t.Logf("%s: %s", tc.name, rep.Detail)
		if rep.OK || !strings.HasPrefix(rep.Detail, "bad access request: ") {
			t.Errorf("%s: reply %+v, want a bad access request", tc.name, rep)
		}
		if bad != bad0+1 || eval != eval0 {
			t.Errorf("%s: %s %d→%d, %s %d→%d; want +1 and unchanged",
				tc.name, badKey, bad0, bad, authz.MetricRequests, eval0, eval)
		}
	}

	// policyctl -cmd authorize -data users paste JSON by hand.
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(valid), "", "    "); err != nil {
		t.Fatal(err)
	}
	bad0, eval0 := counters()
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: indented.String()}); !rep.OK {
		t.Fatalf("indented valid request: %+v", rep)
	}
	if bad, eval := counters(); bad != bad0 || eval != eval0+1 {
		t.Errorf("indented valid request: bad_request %d→%d, evaluated %d→%d", bad0, bad, eval0, eval)
	}
}
