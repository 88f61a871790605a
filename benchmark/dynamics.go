package main

import (
	"context"
	"fmt"
	"sync"

	"jointadmin"
	"jointadmin/internal/authz"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
)

var (
	dynDomains = []string{"D1", "D2", "D3"}
	dynUsers   = []string{"alice", "bob", "carol"}
)

// dynJoiner is the fourth domain the admin worker admits and removes.
const dynJoiner = "D4"

// dynOp is one pooled command of membership_dynamics. Nothing is
// pre-signed: every re-key kills earlier signatures, so the daemon signs
// per request.
type dynOp struct {
	kind    string // read | write
	signers []string
}

// dynamics is the membership_dynamics stack: an in-process writer daemon
// driven through Daemon.Handle while a fourth domain joins and leaves.
type dynamics struct {
	d    *daemon.Daemon
	reg  *obs.Registry
	pool []dynOp
	// epoch is the key epoch the last join/leave reported; each one must
	// advance it by exactly one.
	epoch int
	// joined says whether dynJoiner is a member; the admin worker
	// alternates join and leave.
	joined bool

	// twin is the same coalition assembled from the public facade, so a
	// traced run can time the calls Handle makes internally. Built only
	// for traced runs.
	twin *dynTwin
}

func newDynamics(traced bool) (*dynamics, error) {
	reg := obs.NewRegistry()
	d, err := daemon.New(daemon.Config{Domains: dynDomains, Users: dynUsers, Metrics: reg,
		AuditRetention: daemonAuditRetention})
	if err != nil {
		return nil, err
	}
	s := &dynamics{d: d, reg: reg, epoch: 1}
	for i := range dynUsers {
		s.pool = append(s.pool,
			dynOp{kind: "read", signers: dynUsers[i : i+1]},
			dynOp{kind: "write", signers: []string{dynUsers[i], dynUsers[(i+1)%len(dynUsers)]}})
	}
	if traced {
		if s.twin, err = newDynTwin(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *dynamics) kinds() []string {
	k := make([]string, len(s.pool))
	for i := range s.pool {
		k[i] = s.pool[i].kind
	}
	return k
}

func (s *dynamics) decide(ctx context.Context, k int, tr *tracer, req int32) error {
	op := s.pool[k]
	if tr != nil {
		return s.twin.decide(ctx, op, tr, req)
	}
	cmd := daemon.Command{Cmd: op.kind, Signers: op.signers}
	if op.kind == "write" {
		cmd.Data = "v"
	}
	return checkReply(s.d.Handle(ctx, cmd), true)
}

func (s *dynamics) mutate(ctx context.Context, n int, tr *tracer, parent int32) (ack, error) {
	if tr != nil {
		return s.twin.mutate(tr, parent, int32(-(n + 1)))
	}
	verb := "join"
	if s.joined {
		verb = "leave"
	}
	swaps := s.reg.Counter(authz.MetricSnapshotSwaps)
	before := swaps.Value()
	rep := s.d.Handle(ctx, daemon.Command{Cmd: verb, Domain: dynJoiner})
	if !rep.OK {
		return ack{}, fmt.Errorf("%s refused: %s", verb, rep.Detail)
	}
	var epoch int
	if _, err := fmt.Sscanf(rep.Detail, "epoch %d:", &epoch); err != nil || epoch != s.epoch+1 {
		return ack{}, fmt.Errorf("%s: reply %q does not advance key epoch %d by one", verb, rep.Detail, s.epoch)
	}
	s.epoch, s.joined = epoch, !s.joined
	return ack{verb: verb, covered: func() bool { return swaps.Value() > before }}, nil
}

func (s *dynamics) finish(context.Context) error { return s.d.Close() }

// dynTwin mirrors daemon.New and the read/write/join/leave arms of
// Daemon.Handle with public facade calls, one span per call.
type dynTwin struct {
	a   *jointadmin.Alliance
	srv *jointadmin.Server
	reg *obs.Registry
	// dyn is the daemon's dynamics gate: requests share it, join and
	// leave hold it exclusively.
	dyn sync.RWMutex
	// reissued is the certificate count of the last re-key.
	reissued int
	joined   bool
}

func newDynTwin() (*dynTwin, error) {
	a, err := jointadmin.NewAlliance("coalitiond", dynDomains)
	if err != nil {
		return nil, err
	}
	for i, u := range dynUsers {
		if err := a.EnrollUser(dynDomains[i%len(dynDomains)], u); err != nil {
			return nil, err
		}
	}
	if err := a.GrantThreshold("G_write", 2, dynUsers...); err != nil {
		return nil, err
	}
	if err := a.GrantThreshold("G_read", 1, dynUsers...); err != nil {
		return nil, err
	}
	srv, err := a.NewServer("P")
	if err != nil {
		return nil, err
	}
	if err := srv.CreateObject("O", map[string][]string{"G_write": {"write"}, "G_read": {"read"}}, []byte("initial content")); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Authz().Instrument(reg)
	srv.Audit().SetRetention(daemonAuditRetention, nil)
	return &dynTwin{a: a, srv: srv, reg: reg}, nil
}

func (t *dynTwin) decide(ctx context.Context, op dynOp, tr *tracer, req int32) error {
	t.dyn.RLock()
	defer t.dyn.RUnlock()
	t.a.Clock().Tick()
	spec := jointadmin.RequestSpec{Group: "G_read", Op: "read", Object: "O", Signers: op.signers}
	if op.kind == "write" {
		spec.Group, spec.Op, spec.Payload = "G_write", "write", []byte("v")
	}
	root := tr.begin("daemon.handle_"+op.kind, 0, req)
	defer tr.end(root)
	var (
		ar  jointadmin.AccessRequest
		dec jointadmin.Decision
		err error
	)
	tr.call("jointsig.cosign_request", root, req, func() { ar, err = t.a.NewRequest(spec) })
	if err != nil {
		return err
	}
	tr.call("authz.authorize", root, req, func() { dec, err = t.srv.Request(ctx, ar) })
	return checkDecision(dec, err, true)
}

func (t *dynTwin) mutate(tr *tracer, parent, req int32) (ack, error) {
	t.dyn.Lock()
	defer t.dyn.Unlock()
	verb := "join"
	if t.joined {
		verb = "leave"
	}
	t.a.Clock().Tick()
	before := t.srv.Authz().Snapshot()
	var err error
	tr.call("coalition.rekey_"+verb, parent, req, func() {
		if verb == "join" {
			rep, e := t.a.Join(dynJoiner)
			t.reissued, err = rep.CertsReissued, e
		} else {
			rep, e := t.a.Leave(dynJoiner)
			t.reissued, err = rep.CertsReissued, e
		}
	})
	if err != nil {
		return ack{}, err
	}
	tr.call("authz.reanchor", parent, req, func() { err = t.a.Reanchor(t.srv) })
	if err != nil {
		return ack{}, err
	}
	t.joined = !t.joined
	return ack{verb: verb, covered: func() bool { return t.srv.Authz().Snapshot().Epoch > before.Epoch }}, nil
}
