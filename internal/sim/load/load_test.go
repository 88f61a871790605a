package load

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/authz"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
)

// tinyProfile keeps fixture setup fast enough for the unit-test tier
// while still exercising every request kind and the zipfian selection.
func tinyProfile() LoadProfile {
	return LoadProfile{
		Principals: 500,
		Objects:    8,
		GroupSize:  3,
		Keys:       4,
		PoolSize:   24,
		Seed:       1,
		// Force every kind into a 24-entry pool.
		ReadFrac:      0.4,
		SelectiveFrac: 0.2,
		DenyFrac:      0.2,
	}
}

func TestLoadFixtureDecisions(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if f.MaterializedPrincipals() == 0 || f.MaterializedGroups() == 0 {
		t.Fatalf("nothing materialized: principals=%d groups=%d",
			f.MaterializedPrincipals(), f.MaterializedGroups())
	}
	kinds := map[string]int{}
	ctx := context.Background()
	for i := range f.Pool() {
		pr := &f.Pool()[i]
		kinds[pr.Kind]++
		dec, err := f.Server.Authorize(ctx, pr.Req)
		if dec.Allowed != pr.WantAllow {
			t.Fatalf("pool[%d] kind=%s object=%s: allowed=%v want %v (err=%v reason=%s)",
				i, pr.Kind, pr.Object, dec.Allowed, pr.WantAllow, err, dec.Reason)
		}
	}
	for _, k := range []string{"write", "read", "selective", "deny"} {
		if kinds[k] == 0 {
			t.Errorf("pool has no %q requests: %v", k, kinds)
		}
	}
}

func TestLoadChurnKeepsOutcomes(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		verb, err := f.Churn(ctx)
		if err != nil {
			t.Fatalf("churn %d (%s): %v", i, verb, err)
		}
	}
	// Every mutation swapped the snapshot and emptied the certificate
	// cache; pooled requests must still decide to their expected outcome.
	for i := range f.Pool() {
		pr := &f.Pool()[i]
		dec, err := f.Server.Authorize(ctx, pr.Req)
		if dec.Allowed != pr.WantAllow {
			t.Fatalf("post-churn pool[%d] kind=%s: allowed=%v want %v (err=%v)",
				i, pr.Kind, dec.Allowed, pr.WantAllow, err)
		}
	}
}

func TestLoadRunClosedLoop(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)
	res, err := f.Run(context.Background(), RunConfig{
		Mode:        "closed",
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		ChurnEvery:  50 * time.Millisecond,
		Seed:        7,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Allowed == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.Unexpected != 0 {
		t.Fatalf("%d unexpected outcomes: %+v", res.Unexpected, res)
	}
	if res.P50Us <= 0 || res.P999Us < res.P50Us {
		t.Fatalf("implausible latency stats: %+v", res)
	}
	if res.RPS <= 0 {
		t.Fatalf("no RPS: %+v", res)
	}
}

// TestLoadRunTransport drives the same pooled workload over localhost
// TCP through the mux client fleet and serve pipeline: outcomes must
// match the in-process expectations exactly (zero unexpected, zero
// errors), and the wire stats section must be reported.
func TestLoadRunTransport(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)
	res, err := f.Run(context.Background(), RunConfig{
		Mode:        "closed",
		Duration:    400 * time.Millisecond,
		Concurrency: 4,
		Conns:       2,
		Transport:   true,
		ChurnEvery:  100 * time.Millisecond,
		Seed:        7,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Allowed == 0 {
		t.Fatalf("no wire traffic: %+v", res)
	}
	if res.Unexpected != 0 {
		t.Fatalf("%d unexpected outcomes over the wire: %+v", res.Unexpected, res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors over a clean localhost link: %+v", res.Errors, res)
	}
	if res.Wire == nil || res.Wire.Conns != 2 {
		t.Fatalf("missing or wrong wire stats: %+v", res.Wire)
	}
	if res.Wire.ConnLost != 0 {
		t.Fatalf("lost connections on a clean link: %+v", res.Wire)
	}
	// The serve pipeline framed every request and reply over TCP.
	if got := reg.Snapshot().CounterValue(`transport_frames_total{dir="in"}`); got == 0 {
		t.Fatal("no inbound frames counted; traffic did not cross the wire")
	}
}

func TestLoadRunOpenLoop(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)
	res, err := f.Run(context.Background(), RunConfig{
		Mode:        "open",
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		RateHz:      200,
		Seed:        7,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.Unexpected != 0 {
		t.Fatalf("%d unexpected outcomes: %+v", res.Unexpected, res)
	}
	// 200 Hz for 300ms ≈ 60 arrivals; allow wide slack but catch a
	// runaway generator.
	if res.Sent > 120 {
		t.Fatalf("open loop sent %d requests at 200 Hz over 300ms", res.Sent)
	}
}

// TestWireHandlerBadRequests feeds the loadgen wire handler the
// follower's malformed-request table (internal/daemon's
// malformedRequests): each is refused as a bad request before
// Authorize, and a hand-indented valid request is evaluated.
func TestWireHandlerBadRequests(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)
	var read *PooledRequest
	for i := range f.Pool() {
		if pr := &f.Pool()[i]; pr.Kind == "read" && pr.WantAllow {
			read = pr
			break
		}
	}
	if read == nil {
		t.Fatal("pool has no allowed read request")
	}
	b, err := json.Marshal(read.Req)
	if err != nil {
		t.Fatal(err)
	}
	valid := string(b)
	at := regexp.MustCompile(`"at":(\d+)`)
	ctx := context.Background()
	evaluated := func() int64 { return reg.Snapshot().CounterValue(authz.MetricRequests) }
	for _, tc := range []struct{ name, data string }{
		{"truncated", valid[:len(valid)/2]},
		{"trailing bytes", valid + " x"},
		{"unknown key", `{"extra":1,` + valid[1:]},
		{`case-folded "Identities"`, strings.Replace(valid, `"identities"`, `"Identities"`, 1)},
		{"string time", at.ReplaceAllString(valid, `"at":"$1"`)},
		{"1e3 time", at.ReplaceAllString(valid, `"at":1e3`)},
		{"bad base64 payload", strings.Replace(valid, `"op":"read",`, `"op":"read","payload":"!!!",`, 1)},
	} {
		before := evaluated()
		rep := f.wireHandler(ctx, daemon.Command{Cmd: "authorize", Data: tc.data})
		if rep.OK || !strings.HasPrefix(rep.Detail, "error: bad request: ") {
			t.Errorf("%s: reply %+v, want a bad request", tc.name, rep)
		}
		if after := evaluated(); after != before {
			t.Errorf("%s: reached Authorize (%s %d→%d)", tc.name, authz.MetricRequests, before, after)
		}
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, b, "", "    "); err != nil {
		t.Fatal(err)
	}
	if rep := f.wireHandler(ctx, daemon.Command{Cmd: "authorize", Data: indented.String()}); !rep.OK {
		t.Fatalf("indented valid request: %+v", rep)
	}
}
