package authz

// Golden pin for the derivations the audit log keeps. A decision stores
// its proof and the log renders it when read; the rendered text must be
// the text the decision path used to render eagerly, byte for byte, and
// it must stay that text however long the entry outlives its request —
// across a snapshot publish, recycled engines and scratch, and a
// re-anchoring. testdata/audit_golden.txt was captured from the eager
// renderer; its WAL section pins the journaled audit records.

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/wal"
)

const auditGoldenFile = "testdata/audit_golden.txt"

var (
	// hexRun matches key IDs and certificate fingerprints: every run of
	// the fixture draws fresh keys, so they differ between runs.
	hexRun = regexp.MustCompile(`[0-9a-f]{16,}`)
	// spanDuration matches a span's measured wall-clock time in a
	// journaled audit record.
	spanDuration = regexp.MustCompile(`"duration":[0-9]+`)
)

// normalizeRun replaces what legitimately differs between two runs of the
// same history — key IDs, fingerprints, span durations — with stable
// placeholders, numbered in order of first appearance.
func normalizeRun(s string) string {
	ids := make(map[string]string)
	s = hexRun.ReplaceAllStringFunc(s, func(h string) string {
		if _, ok := ids[h]; !ok {
			ids[h] = fmt.Sprintf("<hex%d>", len(ids)+1)
		}
		return ids[h]
	})
	return spanDuration.ReplaceAllString(s, `"duration":0`)
}

// signedRequestAt is thresholdRequest with an explicit request time.
func (f *fixture) signedRequestAt(t *testing.T, ac pki.Signed[pki.ThresholdAttribute], op acl.Permission, object string, payload []byte, at clock.Time, signers ...string) AccessRequest {
	t.Helper()
	req := AccessRequest{Threshold: ac}
	for _, u := range signers {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, at, op, object, payload, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	return req
}

// goldenCase is one decision of the pinned history.
type goldenCase struct {
	name string
	id   string
}

// auditHistory is the pinned history: a server with a freshness window
// and an audit log, the decisions it made and their request IDs.
type auditHistory struct {
	srv    *Server
	log    *audit.Log
	policy pki.Signed[pki.ThresholdAttribute]
	cases  []goldenCase
}

// decideCase decides req and records it under name; wantAllowed guards
// against a history that drifted into different outcomes.
func (h *auditHistory) decideCase(t *testing.T, name string, req AccessRequest, wantAllowed bool, step string) {
	t.Helper()
	dec, _ := h.srv.Authorize(context.Background(), req)
	if dec.Allowed != wantAllowed || dec.DeniedStep != step {
		t.Fatalf("%s: allowed=%v step=%q (%s), want allowed=%v step=%q", name, dec.Allowed, dec.DeniedStep, dec.Reason, wantAllowed, step)
	}
	h.cases = append(h.cases, goldenCase{name: name, id: dec.RequestID})
}

// runAuditHistory drives the pinned decisions: a replay approval with
// residuals off, the residual approval of the same request once the cache
// is warm, a replay denial at every step that carries a proof, and a
// freshness denial decided residually.
func runAuditHistory(t *testing.T, f *fixture) *auditHistory {
	t.Helper()
	h := &auditHistory{log: audit.NewLog()}
	h.srv = f.newServerFreshness(h.log, 5)
	policy, err := f.est.AA.IssueThreshold("G_policy", 1, f.subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	h.policy = policy
	now := f.clk.Now()
	write := f.writeRequest(t, []byte("golden"), "User_D1", "User_D2")

	h.srv.SetResidualsEnabled(false)
	h.decideCase(t, "replay approval", write, true, "")
	stale := f.signedRequestAt(t, f.writeAC, acl.Write, "O", []byte("stale"), now.Add(-20), "User_D1", "User_D2")
	h.decideCase(t, "replay denial at freshness", stale, false, StepFreshness)
	badID := f.writeRequest(t, []byte("bad id"), "User_D1", "User_D3")
	badID.Identities[1].Cert.NotAfter--
	h.decideCase(t, "replay denial at step1_certs", badID, false, StepCerts)
	badAC := f.writeRequest(t, []byte("bad ac"), "User_D1", "User_D2")
	badAC.Threshold.Cert.NotAfter--
	h.decideCase(t, "replay denial at step2_threshold", badAC, false, StepThreshold)
	h.decideCase(t, "replay denial at step3_cosign", f.writeRequest(t, []byte("alone"), "User_D1"), false, StepCosign)
	h.decideCase(t, "replay denial at step4_acl",
		f.thresholdRequest(t, f.writeAC, acl.Modify, "O", []byte(`[]`), "User_D1", "User_D2"), false, StepACL)
	h.decideCase(t, "replay denial at execute",
		f.thresholdRequest(t, policy, acl.Modify, "O", []byte(`{`), "User_D3"), false, StepExecute)

	h.srv.SetResidualsEnabled(true)
	h.decideCase(t, "residual approval", write, true, "")
	h.decideCase(t, "residual denial at freshness", stale, false, StepFreshness)
	return h
}

// traces renders the pinned decisions' derivations as read back through
// ByRequestID, and separately as found in Entries.
func (h *auditHistory) traces(t *testing.T) (byID, fromEntries string) {
	t.Helper()
	listed := make(map[string]string)
	for _, e := range h.log.Entries() {
		if e.RequestID != "" {
			listed[e.RequestID] = e.ProofTrace
		}
	}
	var a, b strings.Builder
	for _, c := range h.cases {
		e, ok := h.log.ByRequestID(c.id)
		if !ok {
			t.Fatalf("%s: no audit entry for %s", c.name, c.id)
		}
		fmt.Fprintf(&a, "== %s [%s] ==\n%s", c.name, c.id, normalizeRun(e.ProofTrace))
		fmt.Fprintf(&b, "== %s [%s] ==\n%s", c.name, c.id, normalizeRun(listed[c.id]))
	}
	return a.String(), b.String()
}

// auditJournal keeps the journaled audit records' bodies.
type auditJournal struct {
	mu     sync.Mutex
	n      int
	bodies [][]byte
}

func (j *auditJournal) Append(rec wal.Record, _ bool) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.n++
	if rec.Type == wal.TypeAudit {
		j.bodies = append(j.bodies, rec.Body)
	}
	return uint64(j.n), nil
}

func (j *auditJournal) Empty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n == 0
}

// journaledAudit runs a fixed history — a cold replay approval, its
// residual repeat, a residual denial and a replay denial — on a server
// with a journal and renders the WAL audit records it appended.
func journaledAudit(t *testing.T, f *fixture) string {
	t.Helper()
	j := &auditJournal{}
	srv := f.newServer(audit.NewLog())
	if err := srv.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	read := f.thresholdRequest(t, f.readAC, acl.Read, "O", nil, "User_D2")
	for _, req := range []AccessRequest{
		read, read,
		f.thresholdRequest(t, f.readAC, acl.Write, "O", []byte("x"), "User_D2"),
	} {
		srv.Authorize(ctx, req)
	}
	srv.SetResidualsEnabled(false)
	srv.Authorize(ctx, f.thresholdRequest(t, f.readAC, acl.Write, "O", []byte("y"), "User_D3"))

	j.mu.Lock()
	defer j.mu.Unlock()
	var b strings.Builder
	for i, body := range j.bodies {
		fmt.Fprintf(&b, "== wal audit record %d ==\n%s\n", i+1, normalizeRun(string(body)))
	}
	return b.String()
}

// TestAuditDerivationsGolden: every pinned derivation reads back equal to
// the golden text through ByRequestID and Entries — right after the
// decisions, after a publish swapped the snapshot, after 1 000 further
// decisions recycled engines and scratch, and after a join/leave
// re-anchoring — and the journaled audit records equal the golden ones.
func TestAuditDerivationsGolden(t *testing.T) {
	golden, err := os.ReadFile(auditGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	f, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	h := runAuditHistory(t, f)
	want, _ := h.traces(t)
	if got := want + journaledAudit(t, f); got != string(golden) {
		t.Fatalf("audit text differs from %s:\n%s", auditGoldenFile, lineDiff(string(golden), got))
	}
	check := func(when string) {
		t.Helper()
		byID, listed := h.traces(t)
		if byID != want {
			t.Fatalf("%s: ByRequestID text changed:\n%s", when, lineDiff(want, byID))
		}
		if listed != want {
			t.Fatalf("%s: Entries text changed:\n%s", when, lineDiff(want, listed))
		}
	}
	check("as decided")

	ctx := context.Background()
	rev, err := f.ra.Revoke(f.readAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.srv.Apply(ctx, Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	check("after a publish")

	for i := 0; i < 1000; i++ {
		h.srv.SetResidualsEnabled(i%3 != 0)
		var req AccessRequest
		switch i % 4 {
		case 0:
			req = f.writeRequest(t, []byte(fmt.Sprintf("w%d", i)), "User_D2", "User_D3")
		case 1:
			req = f.writeRequest(t, []byte("alone"), "User_D3")
		case 2:
			req = f.thresholdRequest(t, f.writeAC, acl.Modify, "O", []byte(`[]`), "User_D1", "User_D3")
		default:
			req = f.thresholdRequest(t, h.policy, acl.Read, "O", nil, "User_D1")
		}
		h.srv.Authorize(ctx, req)
	}
	h.srv.SetResidualsEnabled(true)
	check("after 1000 further decisions")

	join := f.anchors(5)
	join.Domains = append(join.Domains, "D4")
	for _, a := range []TrustAnchors{join, f.anchors(5)} {
		if err := h.srv.Apply(ctx, Reanchor{Anchors: a}); err != nil {
			t.Fatal(err)
		}
		h.srv.Authorize(ctx, f.writeRequest(t, []byte("after re-anchor"), "User_D1", "User_D2"))
	}
	check("after a join/leave re-anchoring")
}

// lineDiff shows the first differing line of two texts, with context.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
	return "(texts equal)"
}
