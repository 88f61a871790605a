package authz

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
)

// instrumentedServer builds a fixture server with its own registry.
func (f *fixture) instrumentedServer(log *audit.Log) (*Server, *obs.Registry) {
	srv := f.newServer(log)
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	return srv, reg
}

// len counts the residues memoized so far (tests only: the server never
// needs the count).
func (rm *residueMemo) len() int {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	return len(rm.m)
}

// residualCounts reads the three residual counters.
func residualCounts(reg *obs.Registry) (hits, fallbacks, compiles int64) {
	snap := reg.Snapshot()
	return snap.CounterValue(MetricResidualHits), snap.CounterValue(MetricResidualFallbacks), snap.CounterValue(MetricResidualCompiles)
}

// requireResidualAgreesWithReplay decides a warm request on the residual
// path, then again with the full replay forced, and requires the two
// decisions to agree on everything a caller can observe. The request
// must not change state when it is allowed.
func requireResidualAgreesWithReplay(t *testing.T, srv *Server, reg *obs.Registry, req AccessRequest) Decision {
	t.Helper()
	ctx := context.Background()
	hitsBefore, _, _ := residualCounts(reg)
	res, resErr := srv.Authorize(ctx, req)
	if hits, _, _ := residualCounts(reg); hits != hitsBefore+1 {
		t.Fatalf("request was not decided on the residual path (hits %d -> %d): %v", hitsBefore, hits, resErr)
	}
	srv.SetResidualsEnabled(false)
	defer srv.SetResidualsEnabled(true)
	full, fullErr := srv.Authorize(ctx, req)
	if res.Allowed != full.Allowed || res.Group != full.Group || res.DeniedStep != full.DeniedStep || res.Reason != full.Reason {
		t.Fatalf("residual and replay decisions diverge:\nresidual: allowed=%v group=%q step=%q reason=%q\nreplay:   allowed=%v group=%q step=%q reason=%q",
			res.Allowed, res.Group, res.DeniedStep, res.Reason, full.Allowed, full.Group, full.DeniedStep, full.Reason)
	}
	if (resErr == nil) != (fullErr == nil) || (resErr != nil && resErr.Error() != fullErr.Error()) {
		t.Fatalf("residual and replay errors diverge: %v vs %v", resErr, fullErr)
	}
	return res
}

// TestResidualNeedsNoRecompile: an object created after the last snapshot
// publish, and an ACL changed through the modify op, are decided on the
// residual path by the very next warm request — the object store is not
// an input of any residue, so nothing is recompiled.
func TestResidualNeedsNoRecompile(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	ctx := context.Background()
	signers := []string{"User_D1", "User_D2"}
	for i := 0; i < 2; i++ { // cold, then warm: compiles G_write's residue
		if _, err := srv.Authorize(ctx, f.writeRequest(t, []byte("v2"), signers...)); err != nil {
			t.Fatal(err)
		}
	}
	if hits, falls, compiles := residualCounts(reg); hits != 1 || falls != 1 || compiles != 1 {
		t.Fatalf("after warm-up: hits=%d fallbacks=%d compiles=%d, want 1/1/1", hits, falls, compiles)
	}

	// A new object, installed behind the snapshot's back, that G_write
	// cannot write yet.
	a, err := acl.NewACL(
		acl.Entry{Group: "G_read", Perms: []acl.Permission{acl.Read}},
		acl.Entry{Group: "G_policy", Perms: []acl.Permission{acl.Modify}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Objects().Create("O2", a, []byte("fresh"), "G_policy"); err != nil {
		t.Fatal(err)
	}
	writeO2 := f.thresholdRequest(t, f.writeAC, acl.Write, "O2", []byte("w"), signers...)
	dec, err := srv.Authorize(ctx, writeO2)
	if err == nil || dec.DeniedStep != StepACL {
		t.Fatalf("write to O2 before the ACL change: dec=%+v err=%v", dec, err)
	}
	if hits, falls, _ := residualCounts(reg); hits != 2 || falls != 1 {
		t.Fatalf("new object was not decided on the residual path: hits=%d fallbacks=%d", hits, falls)
	}

	// G_policy grants G_write the permission through the modify op (cold:
	// its certificate is new to this snapshot).
	policyAC, err := f.est.AA.IssueThreshold("G_policy", 2, f.subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	newACL, err := json.Marshal([]acl.Entry{
		{Group: "G_write", Perms: []acl.Permission{acl.Write}},
		{Group: "G_policy", Perms: []acl.Permission{acl.Modify}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Authorize(ctx, f.thresholdRequest(t, policyAC, acl.Modify, "O2", newACL, signers...)); err != nil {
		t.Fatalf("modify ACL of O2: %v", err)
	}
	if dec, err := srv.Authorize(ctx, writeO2); err != nil || !dec.Allowed {
		t.Fatalf("write to O2 after the ACL change: dec=%+v err=%v", dec, err)
	}
	// Three residual decisions, two cold ones, and still the one residue.
	if hits, falls, compiles := residualCounts(reg); hits != 3 || falls != 2 || compiles != 1 {
		t.Fatalf("after the ACL change: hits=%d fallbacks=%d compiles=%d, want 3/2/1", hits, falls, compiles)
	}
}

// TestResidueMemoBounded: the memo grows only for a group named by a
// certificate already verified in the same snapshot — never from request
// input alone.
func TestResidueMemoBounded(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := srv.Authorize(ctx, f.writeRequest(t, []byte("v2"), "User_D1", "User_D2")); err != nil {
			t.Fatal(err)
		}
	}
	memo := srv.state.Load().residues
	requireOneResidue := func(when string) {
		t.Helper()
		if _, _, compiles := residualCounts(reg); compiles != 1 || memo.len() != 1 {
			t.Fatalf("%s: compiles=%d memo=%d, want 1/1", when, compiles, memo.len())
		}
	}
	requireOneResidue("after warm-up")

	// Forged certificates naming groups no verified certificate names.
	for i := 0; i < 50; i++ {
		forged := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
		forged.Threshold.Cert.Group = fmt.Sprintf("G_bogus%d", i)
		if dec, err := srv.Authorize(ctx, forged); err == nil || dec.Allowed {
			t.Fatalf("forged group %d approved", i)
		}
	}
	requireOneResidue("after forged groups")

	// A genuine certificate the snapshot has not verified yet compiles
	// nothing until it has been.
	read := readRequest(t, f, "User_D1")
	if _, err := srv.Authorize(ctx, read); err != nil {
		t.Fatal(err)
	}
	requireOneResidue("after a cold genuine certificate")
	if _, err := srv.Authorize(ctx, read); err != nil {
		t.Fatal(err)
	}
	if _, _, compiles := residualCounts(reg); compiles != 2 || memo.len() != 2 {
		t.Fatalf("warm genuine certificate: compiles=%d memo=%d, want 2/2", compiles, memo.len())
	}

	// RecompileResiduals only empties the memo; the next warm request
	// refills it.
	srv.RecompileResiduals()
	if memo.len() != 0 {
		t.Fatalf("memo holds %d residues after RecompileResiduals", memo.len())
	}
	requireResidualAgreesWithReplay(t, srv, reg, read)
	if memo.len() != 1 {
		t.Fatalf("memo holds %d residues after one warm request, want 1", memo.len())
	}
}

// TestReplayCompilesNothing: replaying a record history publishes one
// snapshot per record and compiles no residue for any of them.
func TestReplayCompilesNothing(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	dir := t.TempDir()
	writer := f.newServer(nil)
	if err := writer.SetJournal(openWAL(t, dir)); err != nil {
		t.Fatal(err)
	}
	const links = 8
	for i := 0; i < links; i++ {
		link, err := f.est.AA.IssueGroupLink(fmt.Sprintf("G_sub%d", i), "G_read", clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.Apply(ctx, GroupLink{Cert: link}); err != nil {
			t.Fatal(err)
		}
	}
	_, recs := reopenWAL(t, dir)

	srv, reg := f.instrumentedServer(nil)
	rep, err := srv.Replay(recs, ReplayExact)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupLinks != links {
		t.Fatalf("replayed %d group links, want %d: %+v", rep.GroupLinks, links, rep)
	}
	if _, _, compiles := residualCounts(reg); compiles != 0 {
		t.Fatalf("replay compiled %d residues, want 0", compiles)
	}

	store := acl.NewStore(f.clk)
	replica, _, err := NewReplica("follower", f.clk, store, nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n := replica.state.Load().residues.len(); n != 0 {
		t.Fatalf("replica starts with %d residues, want 0", n)
	}
}

// TestResidueFirstUseRace: goroutines racing the first warm request for
// one group compile its residue once. Run with -race.
func TestResidueFirstUseRace(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	read := readRequest(t, f, "User_D3")
	if _, err := srv.Authorize(context.Background(), read); err != nil { // cold: warms the cache only
		t.Fatal(err)
	}
	if _, _, compiles := residualCounts(reg); compiles != 0 {
		t.Fatalf("cold request compiled %d residues", compiles)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if dec, err := srv.Authorize(context.Background(), read); err != nil || !dec.Allowed {
				t.Errorf("racing read: dec=%+v err=%v", dec, err)
			}
		}()
	}
	wg.Wait()
	hits, _, compiles := residualCounts(reg)
	if n := srv.state.Load().residues.len(); n != 1 || compiles != 1 || hits != 8 {
		t.Fatalf("memo=%d compiles=%d hits=%d, want 1/1/8", n, compiles, hits)
	}
}

// TestResidualMatchesReplayOnACLDenials extends the residual-vs-replay
// differential to the Step-4 leaves the object decides: an unknown
// object, a group that is not on the ACL, and a group whose links do not
// reach it.
func TestResidualMatchesReplayOnACLDenials(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(audit.NewLog())
	ctx := context.Background()
	subAC, err := f.est.AA.IssueThreshold("G_sub", 1, f.subjects(), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	link, err := f.est.AA.IssueGroupLink("G_sub", "G_elsewhere", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Apply(ctx, GroupLink{Cert: link}); err != nil {
		t.Fatal(err)
	}
	// Warm every certificate the probes use (the outcomes do not matter).
	for _, warm := range []AccessRequest{
		readRequest(t, f, "User_D1"),
		f.thresholdRequest(t, subAC, acl.Read, "O", nil, "User_D1"),
		f.writeRequest(t, []byte("seed"), "User_D1", "User_D2"),
	} {
		srv.Authorize(ctx, warm) //nolint:errcheck // warming only
	}
	for _, tc := range []struct {
		name string
		req  AccessRequest
		want string // DeniedStep; "" = allowed
	}{
		{"known object", readRequest(t, f, "User_D1"), ""},
		{"unknown object", f.thresholdRequest(t, f.readAC, acl.Read, "Nope", nil, "User_D1"), StepACL},
		{"group not on the ACL for the op", f.thresholdRequest(t, f.readAC, acl.Write, "O", []byte("x"), "User_D1"), StepACL},
		{"group not reaching the ACL", f.thresholdRequest(t, subAC, acl.Read, "O", nil, "User_D1"), StepACL},
		{"threshold not met", f.writeRequest(t, []byte("x"), "User_D1"), StepCosign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := requireResidualAgreesWithReplay(t, srv, reg, tc.req)
			if dec.DeniedStep != tc.want || dec.Allowed != (tc.want == "") {
				t.Fatalf("decision = %+v, want denied step %q", dec, tc.want)
			}
		})
	}
}

// TestWarmRequestNeverFallsBack: once its certificates are cached, every
// request kind the fixture serves — a 2-of-3 write, a 1-of-3 read, a
// single-subject read (A35) and a delegated read — is decided on the
// residual path, approvals and Step 3 / Step 4 denials alike, and each
// decision matches the replay's. Only a cold cache, a foreign issuer or a
// subject without an absorbed chain may fall back.
func TestWarmRequestNeverFallsBack(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(audit.NewLog())
	ctx := context.Background()
	root := f.issueDelegation(t, "", "User_D1", "G_read", 0, "read")
	if err := srv.Apply(ctx, Delegation{Cert: root}); err != nil {
		t.Fatal(err)
	}
	// One single-subject certificate for User_D3, signed for by user.
	single := f.singleReadRequest(t, "User_D3")
	singleRead := func(user, object string) AccessRequest {
		req := AccessRequest{SingleSubject: true, Single: single.Single}
		req.Identities = []pki.Signed[pki.Identity]{f.idCerts[user]}
		r, err := SignRequest(user, f.clk.Now(), acl.Read, object, nil, f.users[user])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = []UserRequest{r}
		return req
	}
	write := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	for _, warm := range []AccessRequest{
		write,
		readRequest(t, f, "User_D3"),
		single,
		f.delegatedReadRequest(t, "User_D1", root),
	} {
		if dec, err := srv.Authorize(ctx, warm); err != nil || !dec.Allowed {
			t.Fatalf("warm-up: dec=%+v err=%v", dec, err)
		}
	}
	_, fallbacks, _ := residualCounts(reg)

	tampered := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	tampered.Requests[1].Payload = []byte("other")
	malformed := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	malformed.Requests[0].SigS = "zz"
	disagree := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	disagree.Requests[1].Object = "Nope"
	missingID := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	missingID.Identities = missingID.Identities[:1]
	for _, tc := range []struct {
		name string
		req  AccessRequest
		want string // DeniedStep; "" = allowed
	}{
		{"2-of-3 write", write, ""},
		{"1-of-3 read", readRequest(t, f, "User_D2"), ""},
		{"single-subject read", singleRead("User_D3", "O"), ""},
		{"delegated read", f.delegatedReadRequest(t, "User_D1", root), ""},
		{"threshold not met", f.writeRequest(t, []byte("w"), "User_D3"), StepCosign},
		{"signature invalid", tampered, StepCosign},
		{"signature malformed", malformed, StepCosign},
		{"co-signers disagree", disagree, StepCosign},
		{"identity missing", missingID, StepCosign},
		{"single-subject non-subject signer", singleRead("User_D1", "O"), StepCosign},
		{"write to an unknown object", f.thresholdRequest(t, f.writeAC, acl.Write, "Nope", []byte("w"), "User_D1", "User_D2"), StepACL},
		{"read group writing", f.thresholdRequest(t, f.readAC, acl.Write, "O", []byte("w"), "User_D3"), StepACL},
		{"single-subject unknown object", singleRead("User_D3", "Nope"), StepACL},
		{"delegated unknown object", f.delegatedReadOf(t, "Nope", "User_D1", root), StepACL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := requireResidualAgreesWithReplay(t, srv, reg, tc.req)
			if dec.DeniedStep != tc.want || dec.Allowed != (tc.want == "") {
				t.Fatalf("decision = %+v, want denied step %q", dec, tc.want)
			}
			if _, got, _ := residualCounts(reg); got != fallbacks {
				t.Fatalf("%s fell back: %s %d -> %d", tc.name, MetricResidualFallbacks, fallbacks, got)
			}
		})
	}
}

// TestResidueReachableMatchesOracle: a residue compiled from a random
// relation graph, walked at request time, reaches exactly the groups
// delegation.Reachable finds over the edges in force at that time — and
// the belief store's own walk returns them in the same order — with edges
// that start and lapse at different times.
func TestResidueReachableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	groups := []string{"A", "B", "C", "D", "E", "F", "G2", "H"}
	type timedEdge struct {
		delegation.Edge
		validity clock.Interval
	}
	for trial := 0; trial < 200; trial++ {
		eng := logic.NewEngine("P", clock.New(0))
		var edges []timedEdge
		for i := 0; i < 12; i++ {
			from, to := groups[rng.Intn(len(groups))], groups[rng.Intn(len(groups))]
			if from == to {
				continue
			}
			b := clock.Time(rng.Intn(600))
			iv := clock.NewInterval(b, b+clock.Time(rng.Intn(600)))
			ts := logic.During(iv.Begin, iv.End).On("AA")
			e := timedEdge{delegation.Edge{From: from, To: to}, iv}
			if rng.Intn(2) == 0 {
				eng.Store().Add(logic.GroupSpeaksFor{Sub: logic.G(from), T: ts, Sup: logic.G(to)}, 0, i+1)
			} else {
				e.Bounded, e.Depth = true, rng.Intn(4)
				eng.Store().Add(logic.GroupGraphEdge{Sub: logic.G(from), T: ts, Depth: e.Depth, Sup: logic.G(to)}, 0, i+1)
			}
			edges = append(edges, e)
		}
		eng.Seal()
		res := buildRelIndex(eng).compile("A", 0)
		for _, at := range []clock.Time{0, 150, 300, 450, 600, 750, 900, 1200} {
			var live []delegation.Edge
			for _, e := range edges {
				if e.validity.Contains(at) {
					live = append(live, e.Edge)
				}
			}
			want := delegation.Reachable(live, "A")
			got := res.reachable("A", at)
			if len(got) != len(want) {
				t.Fatalf("trial %d at %s: residue reaches %v, oracle %v", trial, at, got, want)
			}
			for _, g := range got {
				if _, ok := want[g.Name]; !ok {
					t.Fatalf("trial %d at %s: residue reaches %s, the oracle does not", trial, at, g.Name)
				}
			}
			if store := eng.Store().EffectiveGroups(logic.G("A"), at); !slices.Equal(got, store) {
				t.Fatalf("trial %d at %s: residue walk %v, store walk %v", trial, at, got, store)
			}
		}
	}
}
