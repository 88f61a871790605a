package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
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

// startWriterAndFollower starts a replicating writer and one follower
// serving over localhost. Both stop when the test ends.
func startWriterAndFollower(ctx context.Context, t *testing.T) (*Daemon, *Follower, *obs.Registry) {
	t.Helper()
	d, f, reg, _ := startFleet(ctx, t)
	return d, f, reg
}

// startFleet is startWriterAndFollower, and also returns the function
// that stops both serve loops and closes their nodes (it runs at the
// latest when the test ends). The follower's replica stays installed.
func startFleet(ctx context.Context, t *testing.T) (*Daemon, *Follower, *obs.Registry, func()) {
	t.Helper()
	return serveFleet(ctx, t, newReplicatingWriter(t))
}

// newReplicatingWriter builds the writer startFleet serves, not yet
// listening. It closes when the test ends.
func newReplicatingWriter(t *testing.T) *Daemon {
	t.Helper()
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
	t.Cleanup(func() { d.Close() })
	return d
}

// serveFleet is startFleet on a writer the caller built.
func serveFleet(ctx context.Context, t *testing.T, d *Daemon) (*Daemon, *Follower, *obs.Registry, func()) {
	t.Helper()
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
	serveCtx, cancel := context.WithCancel(ctx)
	served := make(chan error, 2)
	go func() { served <- d.Serve(serveCtx, wnode) }()
	go func() { served <- f.Serve(serveCtx, fnode) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			wnode.Close()
			fnode.Close()
			<-served
			<-served
		})
	}
	t.Cleanup(stop)
	return d, f, reg, stop
}

// waitCaughtUp waits until f has installed d's state as of d's clock now.
func waitCaughtUp(ctx context.Context, t *testing.T, d *Daemon, f *Follower) {
	t.Helper()
	seq, now := d.wal.Seq(), d.alliance.Clock().Now()
	for st := f.Applier().Status(); !st.Ready || st.LastSeq < seq || st.Clock < now; st = f.Applier().Status() {
		select {
		case <-ctx.Done():
			t.Fatalf("follower stuck at %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestFollowerAuthorizeBadRequests drives the follower's bad_request
// branch through Follower.Handle: every malformed request is refused
// once under daemon_command_errors_total{kind="bad_request"} without
// reaching Authorize, and a hand-indented valid request is approved.
func TestFollowerAuthorizeBadRequests(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, reg := startWriterAndFollower(ctx, t)
	rep := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	if !rep.OK {
		t.Fatalf("sign: %+v", rep)
	}
	valid := rep.Data
	waitCaughtUp(ctx, t, d, f)

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

// TestFollowerDeniesZeroModulusIdentity: a request whose identity
// certificate is properly CA-signed but certifies the modulus 0 — and
// whose threshold certificate binds that key, so a decider that accepted
// it would reach the RSA check — is denied by Follower.Handle, and the
// follower goes on serving.
func TestFollowerDeniesZeroModulusIdentity(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	co := d.alliance.Coalition()
	now := d.alliance.Clock().Now()
	validity := clock.NewInterval(now-1, now.Add(1000))
	// Enrolled with an identity certificate that has already expired, so
	// IdentityOf must issue a new one — over the key zeroed below.
	if _, err := co.AddUser("D1", "mallory", clock.NewInterval(now-2, now-1)); err != nil {
		t.Fatal(err)
	}
	kp, err := co.UserKey("mallory")
	if err != nil {
		t.Fatal(err)
	}
	r, err := authz.SignRequest("mallory", now, acl.Read, d.object, nil, kp)
	if err != nil {
		t.Fatal(err)
	}
	// The enrolled key shares its modulus with the CA's registration:
	// zero it, and the CA certifies N = 0 and the AA binds its key ID.
	kp.Public().N.SetInt64(0)
	idc, err := co.IdentityOf("mallory", validity)
	if err != nil {
		t.Fatal(err)
	}
	if idc.Cert.SubjectKey.N != "0" {
		t.Fatalf("certified modulus %q, want \"0\"", idc.Cert.SubjectKey.N)
	}
	ac, err := co.IssueThreshold("G_mallory", 1, []string{"mallory"}, validity)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(authz.AccessRequest{Threshold: ac,
		Identities: []pki.Signed[pki.Identity]{idc}, Requests: []authz.UserRequest{r}})
	if err != nil {
		t.Fatal(err)
	}
	sign := d.Handle(ctx, Command{Cmd: "sign", Signers: []string{"carol"}})
	if !sign.OK {
		t.Fatalf("sign: %+v", sign)
	}
	waitCaughtUp(ctx, t, d, f)

	for i := 0; i < 2; i++ {
		rep := f.Handle(ctx, Command{Cmd: "authorize", Data: string(body)})
		if rep.OK || !strings.Contains(rep.Detail, "identity certificate key malformed") {
			t.Fatalf("try %d: reply %+v, want an identity-key denial", i, rep)
		}
	}
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: sign.Data}); !rep.OK {
		t.Fatalf("valid request after the denial: %+v", rep)
	}
}
