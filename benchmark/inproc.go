package main

import (
	"context"
	"fmt"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/sim/load"
)

// inproc is the in-process stack of warm_decide and churn_publish: a
// synthesized coalition (load.LoadFixture) whose authz.Server is called
// directly. The serving node is the writer itself.
type inproc struct {
	f    *load.LoadFixture
	reg  *obs.Registry
	pool []load.PooledRequest
	// buf receives each decision's wire encoding — the cost a caller
	// that ships the decision pays. One caller per run, so one buffer.
	buf []byte
}

func newInproc(p load.LoadProfile) (*inproc, error) {
	f, err := load.NewLoadFixture(p)
	if err != nil {
		return nil, err
	}
	// The serving configuration cmd/loadgen runs by default.
	f.Server.SetBatchVerify(true)
	f.Server.SetPooling(true)
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)
	return &inproc{f: f, reg: reg, pool: f.Pool(), buf: make([]byte, 0, 1024)}, nil
}

func (s *inproc) kinds() []string {
	k := make([]string, len(s.pool))
	for i := range s.pool {
		k[i] = s.pool[i].Kind
	}
	return k
}

func (s *inproc) decide(ctx context.Context, k int, tr *tracer, req int32) error {
	pr := &s.pool[k]
	root := tr.begin("load.request", 0, req)
	id := tr.begin("authz.authorize", root, req)
	dec, err := s.f.Server.Authorize(ctx, pr.Req)
	tr.end(id)
	id = tr.begin("authz.encode_decision", root, req)
	s.buf = authz.AppendDecisionJSON(s.buf[:0], &dec)
	tr.end(id)
	tr.end(root)
	return checkDecision(dec, err, pr.WantAllow)
}

// checkDecision accepts an approval or a reasoned denial, whichever the
// pool expects. Authorize reports a denial as an error too; an error
// without a denial reason is an evaluation failure.
func checkDecision(dec authz.Decision, err error, want bool) error {
	if err != nil && (dec.Allowed || dec.Reason == "") {
		return fmt.Errorf("authorize failed: %w", err)
	}
	if dec.Allowed != want {
		return fmt.Errorf("wrong outcome: allowed=%v, expected %v (%s)", dec.Allowed, want, dec.Reason)
	}
	return nil
}

func (s *inproc) mutate(ctx context.Context, n int, tr *tracer, parent int32) (ack, error) {
	before := s.f.Server.Snapshot()
	id := tr.begin("load.churn_issue_and_apply", parent, 0)
	verb, err := s.f.Churn(ctx)
	tr.end(id)
	if err != nil {
		return ack{}, fmt.Errorf("churn %s: %w", verb, err)
	}
	return ack{verb: verb, covered: func() bool {
		now := s.f.Server.Snapshot()
		return now.Epoch > before.Epoch || now.Watermark > before.Watermark
	}}, nil
}

func (s *inproc) finish(context.Context) error { return nil }
