package authz

import (
	"context"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/obs"
)

// TestApprovedRequestTrace: an approved write leaves a full span trace in
// the audit log, correlated by the decision's request ID, and increments
// the request/allowed counters with per-step latency samples.
func TestApprovedRequestTrace(t *testing.T) {
	f := newFixture(t)
	log := audit.NewLog()
	server := f.newServer(log)
	reg := obs.NewRegistry()
	server.Instrument(reg)

	dec, err := server.Authorize(context.Background(), f.writeRequest(t, []byte("v2"), "User_D1", "User_D2"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.RequestID == "" {
		t.Fatal("decision has no request ID")
	}
	entry, ok := log.ByRequestID(dec.RequestID)
	if !ok {
		t.Fatalf("no audit entry for request %s", dec.RequestID)
	}
	wantSteps := []string{StepFreshness, StepCerts, StepThreshold, StepCosign, StepACL, StepExecute}
	if len(entry.Spans) != len(wantSteps) {
		t.Fatalf("spans = %v, want steps %v", entry.Spans, wantSteps)
	}
	for i, span := range entry.Spans {
		if span.Step != wantSteps[i] {
			t.Errorf("span %d step = %s, want %s", i, span.Step, wantSteps[i])
		}
		if span.Outcome != "ok" {
			t.Errorf("span %s outcome = %s, want ok", span.Step, span.Outcome)
		}
		if span.Duration < 0 {
			t.Errorf("span %s has negative duration", span.Step)
		}
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricRequests); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRequests, got)
	}
	if got := snap.CounterValue(MetricAllowed); got != 1 {
		t.Errorf("%s = %d, want 1", MetricAllowed, got)
	}
	for _, step := range wantSteps {
		name := MetricStepSeconds + `{step="` + step + `"}`
		h, ok := snap.HistogramValueOf(name)
		if !ok || h.Count != 1 {
			t.Errorf("histogram %s count = %d (found %v), want 1", name, h.Count, ok)
		}
	}
}

// TestDeniedRequestTrace: a 1-of-2-required write is denied at Step 3
// (A38 threshold); the audit trace labels the denying step and the
// matching step-labeled denial counter increments.
func TestDeniedRequestTrace(t *testing.T) {
	f := newFixture(t)
	log := audit.NewLog()
	server := f.newServer(log)
	reg := obs.NewRegistry()
	server.Instrument(reg)

	dec, err := server.Authorize(context.Background(), f.writeRequest(t, []byte("nope"), "User_D1"))
	if err == nil {
		t.Fatal("single-signer write approved under 2-of-3 certificate")
	}
	entry, ok := log.ByRequestID(dec.RequestID)
	if !ok {
		t.Fatalf("no audit entry for request %s", dec.RequestID)
	}
	if entry.Outcome != audit.Denied {
		t.Fatalf("outcome = %v, want DENIED", entry.Outcome)
	}
	last := entry.Spans[len(entry.Spans)-1]
	if last.Step != StepCosign || last.Outcome != "denied" {
		t.Errorf("final span = %+v, want %s denied", last, StepCosign)
	}
	if last.Detail == "" {
		t.Error("denied span has no detail")
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricDenied + `{step="` + StepCosign + `"}`); got != 1 {
		t.Errorf("denied{%s} = %d, want 1", StepCosign, got)
	}
	if got := snap.CounterValue(MetricAllowed); got != 0 {
		t.Errorf("%s = %d, want 0", MetricAllowed, got)
	}
}

// TestACLDenialTrace: a request whose derivation succeeds but whose group
// lacks the permission is denied at Step 4, and the counter is labeled
// accordingly.
func TestACLDenialTrace(t *testing.T) {
	f := newFixture(t)
	log := audit.NewLog()
	server := f.newServer(log)
	reg := obs.NewRegistry()
	server.Instrument(reg)

	// G_write holds "write" only; ask it to "modify" O.
	req := AccessRequest{Threshold: f.writeAC}
	for _, u := range []string{"User_D1", "User_D2"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, f.clk.Now(), acl.Modify, "O", []byte(`[]`), f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	dec, err := server.Authorize(context.Background(), req)
	if err == nil {
		t.Fatal("modify approved for write-only group")
	}
	entry, _ := log.ByRequestID(dec.RequestID)
	last := entry.Spans[len(entry.Spans)-1]
	if last.Step != StepACL || last.Outcome != "denied" {
		t.Errorf("final span = %+v, want %s denied", last, StepACL)
	}
	if got := reg.Snapshot().CounterValue(MetricDenied + `{step="` + StepACL + `"}`); got != 1 {
		t.Errorf("denied{%s} = %d, want 1", StepACL, got)
	}
}

// TestRevocationMetrics: processing a membership revocation lands in the
// revocation counter and timing histogram.
func TestRevocationMetrics(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	reg := obs.NewRegistry()
	server.Instrument(reg)

	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricRevocations + `{kind="membership",outcome="ok"}`); got != 1 {
		t.Errorf("revocations = %d, want 1; snapshot %+v", got, snap.Counters)
	}
	name := MetricRevocationSeconds + `{kind="membership"}`
	if h, ok := snap.HistogramValueOf(name); !ok || h.Count != 1 {
		t.Errorf("histogram %s missing or empty", name)
	}
}
