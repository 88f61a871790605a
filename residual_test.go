package jointadmin

// Residual-soundness regressions: a residue (residual.go) must never
// outlive the belief snapshot it was compiled in, although the verified
// certificates it is decided from do (they belong to the key epoch). For
// each Mutation variant we authorize a request on the warm residual path,
// apply the mutation, and require the very next decision — taken against
// the freshly published snapshot — to deny exactly as the full replay
// does. The -race stress test interleaves Apply with warm Authorize calls
// to check the snapshot swap itself.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
)

// residualFixture builds a 3-domain alliance with a 2-of-3 threshold group
// on one object, instruments the server, and returns a reusable pre-signed
// joint write request (freshness checking is off by default, so replay is
// valid).
func residualFixture(t *testing.T, opts ...Option) (*Alliance, *Server, *obs.Registry, AccessRequest) {
	t.Helper()
	a, err := NewAlliance("residual", []string{"D1", "D2", "D3"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []string{"u1", "u2", "u3"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.GrantThreshold("G_write", 2, "u1", "u2", "u3"); err != nil {
		t.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.Authz().Instrument(reg)
	if err := srv.CreateObject("O", map[string][]string{"G_write": {"write"}}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	req, err := a.NewRequest(RequestSpec{
		Group: "G_write", Op: "write", Object: "O",
		Payload: []byte("v2"), Signers: []string{"u1", "u2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, srv, reg, req
}

// warmResidual replays the request twice — the first call takes the
// residual decider's cold arm and warms the certificate cache, the second
// its warm arm — and asserts both were counted as residual decisions and
// nothing fell back.
func warmResidual(t *testing.T, srv *Server, reg *obs.Registry, req AccessRequest) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := srv.Request(ctx, req); err != nil {
			t.Fatalf("warm-up request %d: %v", i, err)
		}
	}
	if hits, falls := reg.Counter(authz.MetricResidualHits).Value(), reg.Counter(authz.MetricResidualFallbacks).Value(); hits < 2 || falls != 0 {
		t.Fatalf("warm-up was not decided residually: %d hits, %d fallbacks", hits, falls)
	}
	if compiles := reg.Counter(authz.MetricResidualCompiles).Value(); compiles < 1 {
		t.Fatalf("no residues compiled after instrumentation: %d", compiles)
	}
}

// requireDeniedLikeReplay asserts the very next decision denies, and with
// the DeniedStep and reason the full replay of the same request gives.
func requireDeniedLikeReplay(t *testing.T, srv *Server, req AccessRequest) {
	t.Helper()
	ctx := context.Background()
	dec, err := srv.Request(ctx, req)
	if !errors.Is(err, ErrDenied) || dec.Allowed {
		t.Fatalf("request allowed after mutation: allowed=%v err=%v", dec.Allowed, err)
	}
	srv.Authz().SetResidualsEnabled(false)
	defer srv.Authz().SetResidualsEnabled(true)
	replay, err := srv.Request(ctx, req)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("full replay allowed after mutation: %v", err)
	}
	if dec.DeniedStep == "" || dec.DeniedStep != replay.DeniedStep || dec.Reason != replay.Reason {
		t.Fatalf("post-mutation denial diverges from the replay:\nnext:   %s: %s\nreplay: %s: %s",
			dec.DeniedStep, dec.Reason, replay.DeniedStep, replay.Reason)
	}
}

// requireDeniedNext is requireDeniedLikeReplay for a mutation within the
// key epoch: the request's certificates stay cached, so the decision is
// residual — and must have been taken on a residue compiled against the
// new snapshot, not on the one the warm-up used.
func requireDeniedNext(t *testing.T, srv *Server, reg *obs.Registry, req AccessRequest) {
	t.Helper()
	compiles := reg.Counter(authz.MetricResidualCompiles).Value()
	hits := reg.Counter(authz.MetricResidualHits).Value()
	requireDeniedLikeReplay(t, srv, req)
	if after := reg.Counter(authz.MetricResidualCompiles).Value(); after <= compiles {
		t.Fatalf("post-mutation decision compiled no residue (compiles %d -> %d): stale residue?", compiles, after)
	}
	if after := reg.Counter(authz.MetricResidualHits).Value(); after <= hits {
		t.Fatalf("post-mutation decision left the residual path (hits %d -> %d): cache not carried?", hits, after)
	}
}

func TestResidualRevocationInvalidates(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	if err := a.Revoke("G_write", srv); err != nil {
		t.Fatal(err)
	}
	requireDeniedNext(t, srv, reg, req)
}

func TestResidualIdentityRevocationInvalidates(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	if err := a.RevokeIdentity("u1", srv); err != nil {
		t.Fatal(err)
	}
	requireDeniedNext(t, srv, reg, req)
}

func TestResidualCRLInvalidates(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	// Revoke at the RA without delivering, then deliver via the published
	// CRL: the Mutation variant under test is authz.CRL.
	cert, ok := a.Coalition().Certificate("G_write")
	if !ok {
		t.Fatal("no certificate for G_write")
	}
	if _, err := a.Coalition().RA().Revoke(cert, a.Clock().Now()); err != nil {
		t.Fatal(err)
	}
	if err := a.PublishCRL(srv); err != nil {
		t.Fatal(err)
	}
	requireDeniedNext(t, srv, reg, req)
}

func TestResidualReanchorInvalidates(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	// A coalition re-key (a leave whose departing domain is down)
	// re-anchors the server at a new AA key epoch: the pre-signed
	// request's certificates no longer verify there.
	setDown(t, a, "D3")
	if _, err := a.Leave("D3"); err != nil {
		t.Fatal(err)
	}
	if err := a.Reanchor(srv); err != nil {
		t.Fatal(err)
	}
	// The new key epoch starts with an empty certificate cache, so here —
	// and only here — the next decision re-verifies the membership
	// certificate: the residual decider's cold arm.
	misses := reg.Counter(authz.MetricCacheMisses, "kind", "attribute").Value()
	hits := reg.Counter(authz.MetricResidualHits).Value()
	requireDeniedLikeReplay(t, srv, req)
	if after := reg.Counter(authz.MetricCacheMisses, "kind", "attribute").Value(); after <= misses {
		t.Fatalf("decision after re-anchoring verified nothing (misses %d -> %d): cache survived the epoch?", misses, after)
	}
	if after := reg.Counter(authz.MetricResidualHits).Value(); after != hits+1 {
		t.Fatalf("decision after re-anchoring left the residual decider (hits %d -> %d)", hits, after)
	}
	if falls := reg.Counter(authz.MetricResidualFallbacks).Value(); falls != 0 {
		t.Fatalf("%d decisions fell back", falls)
	}
	if reg.Counter(authz.MetricCacheInvalidated).Value() == 0 {
		t.Fatal("re-anchoring dropped no cache entries")
	}
}

// TestResidualRedistributionReverifies is the cooperative counterpart: a
// join keeps the AA key, so after the re-anchoring the pre-signed request
// is approved again by the residual decider's cold arm, which
// re-verifies its membership certificate in the new epoch's empty cache.
func TestResidualRedistributionReverifies(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	if _, err := a.Join("D4"); err != nil {
		t.Fatal(err)
	}
	if err := a.Reanchor(srv); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter(authz.MetricCacheMisses, "kind", "attribute").Value()
	hits := reg.Counter(authz.MetricResidualHits).Value()
	if dec, err := srv.Request(context.Background(), req); err != nil || !dec.Allowed {
		t.Fatalf("pre-signed request after a cooperative join: %+v, %v", dec, err)
	}
	if after := reg.Counter(authz.MetricCacheMisses, "kind", "attribute").Value(); after != misses+1 {
		t.Fatalf("decision after re-anchoring: attribute misses %d -> %d, want one", misses, after)
	}
	if after := reg.Counter(authz.MetricResidualHits).Value(); after != hits+1 {
		t.Fatalf("decision after re-anchoring left the residual decider (hits %d -> %d)", hits, after)
	}
}

// TestResidualGroupLinkEnables is the dual direction: a group absent from
// the ACL is denied, and the GroupLink mutation both authorizes it and
// lets the new snapshot compile a residue that walks the inherited link.
func TestResidualGroupLinkEnables(t *testing.T) {
	a, srv, reg, _ := residualFixture(t)
	if err := a.GrantThreshold("G_sub", 2, "u1", "u2", "u3"); err != nil {
		t.Fatal(err)
	}
	req, err := a.NewRequest(RequestSpec{
		Group: "G_sub", Op: "write", Object: "O",
		Payload: []byte("v3"), Signers: []string{"u1", "u2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if dec, err := srv.Request(ctx, req); err == nil || dec.Allowed {
		t.Fatalf("unlinked group allowed: allowed=%v err=%v", dec.Allowed, err)
	}
	if err := a.LinkGroups("G_sub", "G_write", srv); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Request(ctx, req); err != nil {
		t.Fatalf("linked group denied on cold pass: %v", err)
	}
	hitsBefore := reg.Counter(authz.MetricResidualHits).Value()
	if _, err := srv.Request(ctx, req); err != nil {
		t.Fatalf("linked group denied on warm pass: %v", err)
	}
	if after := reg.Counter(authz.MetricResidualHits).Value(); after <= hitsBefore {
		t.Fatalf("inherited group not decided residually (hits %d -> %d)", hitsBefore, after)
	}
}

// TestResidualLeafExpiry checks the request-variable leaves: within one
// snapshot (warm cache, residue live) an advance of the clock past the
// certificates' validity must deny on the residual path itself.
func TestResidualLeafExpiry(t *testing.T) {
	a, srv, reg, req := residualFixture(t, WithCertValidity(50))
	warmResidual(t, srv, reg, req)
	a.Clock().Advance(500)
	hitsBefore := reg.Counter(authz.MetricResidualHits).Value()
	dec, err := srv.Request(context.Background(), req)
	if err == nil || dec.Allowed {
		t.Fatalf("expired certificates allowed: allowed=%v err=%v", dec.Allowed, err)
	}
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	if after := reg.Counter(authz.MetricResidualHits).Value(); after <= hitsBefore {
		t.Fatalf("expiry denial did not run on the residual path (hits %d -> %d)", hitsBefore, after)
	}
}

// TestResidualApplyRace interleaves belief mutations (Apply via LinkGroups)
// with warm residual authorizations. Every decision taken while unrelated
// links land must still be allowed, and a final revocation must deny.
// Run with -race.
func TestResidualApplyRace(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	ctx := context.Background()

	const mutations = 50
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if dec, err := srv.Request(ctx, req); err != nil || !dec.Allowed {
					select {
					case errs <- fmt.Errorf("denied during unrelated mutations: allowed=%v err=%v", dec.Allowed, err):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < mutations; i++ {
		if err := a.LinkGroups(fmt.Sprintf("G_x%d", i), "G_write", srv); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := a.Revoke("G_write", srv); err != nil {
		t.Fatal(err)
	}
	requireDeniedNext(t, srv, reg, req)
}

// TestResidualObjectStoreIsALeaf: objects are no input of a residue. An
// object created after the last publish is decided on the residual path
// at once with nothing recompiled, and for an unknown object or a group
// missing from the ACL the residual path and the full replay
// (SetResidualsEnabled(false)) return the same decision.
func TestResidualObjectStoreIsALeaf(t *testing.T) {
	a, srv, reg, req := residualFixture(t)
	warmResidual(t, srv, reg, req)
	if err := a.GrantThreshold("G_other", 2, "u1", "u2", "u3"); err != nil {
		t.Fatal(err)
	}
	compiles := reg.Counter(authz.MetricResidualCompiles).Value() // G_write's residue
	if err := srv.CreateObject("O2", map[string][]string{"G_write": {"write"}}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := RequestSpec{Group: "G_write", Op: "write", Object: "O2", Payload: []byte("v2"), Signers: []string{"u1", "u2"}}
	offACL := spec
	offACL.Group, offACL.Object = "G_other", "O"
	unknown := spec
	unknown.Object = "O3"
	for _, tc := range []struct {
		name    string
		spec    RequestSpec
		allowed bool
	}{
		{"object created after the last publish", spec, true},
		{"unknown object", unknown, false},
		{"group not on the ACL", offACL, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := a.NewRequest(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.spec.Group != "G_write" {
				srv.Request(ctx, req) //nolint:errcheck // warms the new group's certificate
			}
			hits := reg.Counter(authz.MetricResidualHits).Value()
			res, resErr := srv.Request(ctx, req)
			if got := reg.Counter(authz.MetricResidualHits).Value(); got != hits+1 {
				t.Fatalf("not decided on the residual path (hits %d -> %d): %v", hits, got, resErr)
			}
			if tc.spec.Group == "G_write" {
				if got := reg.Counter(authz.MetricResidualCompiles).Value(); got != compiles {
					t.Fatalf("object store change recompiled residues (%d -> %d)", compiles, got)
				}
			}
			srv.Authz().SetResidualsEnabled(false)
			defer srv.Authz().SetResidualsEnabled(true)
			full, fullErr := srv.Request(ctx, req)
			if res.Allowed != tc.allowed || res.Allowed != full.Allowed || res.Group != full.Group ||
				res.DeniedStep != full.DeniedStep || res.Reason != full.Reason || (resErr == nil) != (fullErr == nil) {
				t.Fatalf("residual and replay diverge (want allowed=%v):\nresidual: %+v (%v)\nreplay:   %+v (%v)",
					tc.allowed, res, resErr, full, fullErr)
			}
		})
	}
}
