package authz

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
)

// TestAuthorizeConcurrentWithMutations is the -race stress test for the
// snapshot design: many goroutines run Authorize lock-free while belief
// mutators (group links and revocations of an unrelated group) swap
// snapshots underneath them, an auditor renders the audit log's stored
// derivations, and a reader lists each published snapshot's beliefs and
// writes into private forks of it (the engine's ownership rule: a sealed
// engine is only read or forked, a fork has one owner). Every write must
// still be approved — the mutations never touch G_write — every approval
// must read back with its A38 step, no fork's belief may reach a
// published snapshot, and the race detector must stay quiet.
func TestAuthorizeConcurrentWithMutations(t *testing.T) {
	f := newFixture(t)
	log := audit.NewLog()
	server := f.newServer(log)
	req := f.writeRequest(t, []byte("concurrent"), "User_D1", "User_D2")

	const (
		workers = 8
		rounds  = 12
	)
	// Pre-issue throwaway certificates so the mutator can process a fresh
	// revocation (and a fresh group link) per round while the workers run.
	var revs []pki.Signed[pki.Revocation]
	var links []pki.Signed[pki.GroupLink]
	for j := 0; j < rounds; j++ {
		tmp, err := f.est.AA.IssueThreshold(fmt.Sprintf("G_tmp%d", j), 2, f.subjects(), clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		rev, err := f.ra.Revoke(tmp, f.clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, rev)
		link, err := f.est.AA.IssueGroupLink(fmt.Sprintf("G_sub%d", j), "G_write", clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, link)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers*rounds+rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := server.Authorize(context.Background(), req); err != nil {
					errCh <- fmt.Errorf("worker authorize: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < rounds; j++ {
			if err := server.Apply(context.Background(), GroupLink{Cert: links[j]}); err != nil {
				errCh <- fmt.Errorf("group link %d: %w", j, err)
				return
			}
			if err := server.Apply(context.Background(), Revocation{Cert: revs[j]}); err != nil {
				errCh <- fmt.Errorf("revocation %d: %w", j, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	audited := make(chan struct{})
	go func() {
		defer close(audited)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, e := range log.ByOutcome(audit.Approved) {
				if !strings.Contains(e.ProofTrace, "A38") {
					t.Errorf("approval %s read back without its A38 step", e.RequestID)
					return
				}
			}
		}
	}()
	forked := make(chan struct{})
	go func() {
		defer close(forked)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			sn := server.Snapshot()
			if len(sn.Beliefs()) == 0 {
				t.Error("published snapshot holds no beliefs")
				return
			}
			eng := sn.Engine()
			p := logic.Prop{Name: fmt.Sprintf("fork%d", i)}
			eng.Assume(p, "private to this fork")
			if _, ok := eng.Store().Holds(p); !ok {
				t.Errorf("fork %d lost its own belief", i)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-audited
	<-forked
	for _, e := range server.Snapshot().Beliefs() {
		if strings.HasPrefix(e.F.String(), "fork") {
			t.Fatalf("a fork's belief %s reached the published snapshot", e.F)
		}
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := len(log.ByOutcome(audit.Approved)); got != workers*rounds {
		t.Errorf("%d approvals in the audit log, want %d", got, workers*rounds)
	}

	if sn := server.Snapshot(); sn.Watermark != 2*rounds {
		t.Errorf("watermark = %d, want %d (one per mutation)", sn.Watermark, 2*rounds)
	}
}

// TestCacheNeverServesRevokedCertificate is the soundness regression for
// the verified-certificate cache: a revocation keeps the warm entries (the
// cache belongs to the key epoch) and still the previously cached request
// is denied — on cache hits, by the live revocation leaf, with the reason
// a server that never cached anything gives.
func TestCacheNeverServesRevokedCertificate(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	server := f.newServer(nil)
	server.Instrument(reg)
	req := f.writeRequest(t, []byte("warming"), "User_D1", "User_D2")

	// Cold pass: fills the cache.
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatalf("cold authorize: %v", err)
	}
	// Warm pass: must be served from the cache.
	if _, err := server.Authorize(context.Background(), req); err != nil {
		t.Fatalf("warm authorize: %v", err)
	}
	if counterTotal(reg, MetricCacheHits) == 0 {
		t.Fatal("warm authorize recorded no cache hits")
	}

	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	entries := server.state.Load().cache.len()
	if err := server.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatalf("process revocation: %v", err)
	}
	if got := server.state.Load().cache.len(); got != entries || entries == 0 {
		t.Fatalf("revocation changed the cache: %d entries -> %d", entries, got)
	}
	if inv := counterTotal(reg, MetricCacheInvalidated); inv != 0 {
		t.Fatalf("revocation counted %d dropped cache entries, want 0", inv)
	}

	f.clk.Tick()
	req2 := f.writeRequest(t, []byte("after revocation"), "User_D1", "User_D2")
	if _, err := server.Authorize(context.Background(), req2); !errors.Is(err, ErrDenied) {
		t.Fatalf("revoked certificate honored after cache warm-up: %v", err)
	}
	// The identical pre-revocation request is denied too, although every
	// one of its certificates is still cached.
	hits, misses := counterTotal(reg, MetricCacheHits), counterTotal(reg, MetricCacheMisses)
	dec, err := server.Authorize(context.Background(), req)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("stale cached request honored after revocation: %v", err)
	}
	if counterTotal(reg, MetricCacheHits) <= hits || counterTotal(reg, MetricCacheMisses) != misses {
		t.Fatal("post-revocation denial did not run on the carried cache entries")
	}
	cold := f.newServer(nil)
	if err := cold.Apply(context.Background(), Revocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	want, _ := cold.Authorize(context.Background(), req)
	if dec.DeniedStep != want.DeniedStep || dec.Reason != want.Reason {
		t.Fatalf("warm denial (%s: %s) differs from the cold one (%s: %s)", dec.DeniedStep, dec.Reason, want.DeniedStep, want.Reason)
	}
}

// TestSnapshotVersioning: watermark advances per mutation, epoch per
// re-anchoring, and re-anchoring resets derived beliefs.
func TestSnapshotVersioning(t *testing.T) {
	f := newFixture(t)
	server := f.newServerFreshness(nil, 0)
	sn0 := server.Snapshot()
	if sn0.Epoch != 0 || sn0.Watermark != 0 {
		t.Fatalf("initial snapshot = %+v", sn0)
	}
	link, err := f.est.AA.IssueGroupLink("G_a", "G_b", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Apply(context.Background(), GroupLink{Cert: link}); err != nil {
		t.Fatal(err)
	}
	if sn := server.Snapshot(); sn.Epoch != 0 || sn.Watermark != 1 {
		t.Fatalf("after mutation: %+v", sn)
	}
	// Re-anchoring bumps the epoch, resets the watermark, and drops the
	// derived group-link belief (the belief set is rebuilt from anchors).
	nBase := len(server.Snapshot().Beliefs())
	if err := server.Apply(context.Background(), Reanchor{Anchors: f.anchors(0)}); err != nil {
		t.Fatal(err)
	}
	sn := server.Snapshot()
	if sn.Epoch != 1 || sn.Watermark != 0 {
		t.Fatalf("after re-anchor: %+v", sn)
	}
	if got := len(sn.Beliefs()); got >= nBase {
		t.Errorf("re-anchored belief count = %d, want < %d (derived beliefs dropped)", got, nBase)
	}
}

// TestAuthorizeContextCanceled: a canceled context aborts the evaluation
// with the context's error — distinct from a protocol denial — and is
// counted under MetricCanceled, not the denial taxonomy.
func TestAuthorizeContextCanceled(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	server := f.newServer(nil)
	server.Instrument(reg)
	req := f.writeRequest(t, []byte("never"), "User_D1", "User_D2")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dec, err := server.Authorize(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrDenied) {
		t.Fatal("cancellation must not be a protocol denial")
	}
	if dec.Allowed {
		t.Fatal("canceled request approved")
	}
	if got := counterTotal(reg, MetricCanceled); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if got := counterTotal(reg, MetricDenied); got != 0 {
		t.Errorf("denied counter = %d, want 0", got)
	}
}

// authorizeFunc is Server.Authorize as forEachDecider hands it out.
type authorizeFunc func(ctx context.Context, req AccessRequest) (Decision, error)

// reset empties the cache, as a new key epoch's starts (tests only).
func (c *certCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.ring, c.next = c.ring[:0], 0
}

// forEachDecider runs fn once per way a request can be decided, with
// authorize deciding on the server under test: the residual decider's
// warm arm and the full derivation replay, each on a server already
// warmed with the 2-signer write req so every certificate is cached, and
// the residual decider's cold arm, on a server never warmed whose
// certificate cache authorize empties before every decision, so each one
// verifies every certificate it presents.
func forEachDecider(t *testing.T, fn func(t *testing.T, authorize authorizeFunc, reg *obs.Registry, log *audit.Log, req AccessRequest)) {
	f := newFixture(t)
	for _, decider := range []string{"residual", "cold", "replay"} {
		t.Run(decider, func(t *testing.T) {
			log := audit.NewLog()
			srv, reg := f.instrumentedServer(log)
			srv.SetResidualsEnabled(decider != "replay")
			req := f.writeRequest(t, []byte("warm"), "User_D1", "User_D2")
			authorize := srv.Authorize
			if decider == "cold" {
				authorize = func(ctx context.Context, req AccessRequest) (Decision, error) {
					srv.state.Load().cache.reset()
					return srv.Authorize(ctx, req)
				}
			} else if _, err := srv.Authorize(context.Background(), req); err != nil {
				t.Fatalf("warming: %v", err)
			}
			misses := counterTotal(reg, MetricCacheMisses)
			fn(t, authorize, reg, log, req)
			hits, falls, _ := residualCounts(reg)
			if (hits > 0) != (decider != "replay") || falls != 0 {
				t.Fatalf("residual hits = %d, fallbacks = %d on the %s decider", hits, falls, decider)
			}
			if got := counterTotal(reg, MetricCacheMisses); (got > misses) != (decider == "cold") {
				t.Fatalf("cache misses %d -> %d on the %s decider", misses, got, decider)
			}
		})
	}
}

// TestFirstBadCosignerDenies: Step 3 checks the co-signatures in request
// order, so when several are bad the denial names the first signer.
func TestFirstBadCosignerDenies(t *testing.T) {
	forEachDecider(t, func(t *testing.T, authorize authorizeFunc, _ *obs.Registry, _ *audit.Log, req AccessRequest) {
		bad := req
		bad.Requests = append([]UserRequest(nil), req.Requests...)
		// Each signer carries the other's (well-formed, wrong) signature.
		bad.Requests[0].SigS, bad.Requests[1].SigS = req.Requests[1].SigS, req.Requests[0].SigS
		dec, err := authorize(context.Background(), bad)
		if !errors.Is(err, ErrDenied) || dec.DeniedStep != StepCosign {
			t.Fatalf("dec=%+v err=%v, want a Step-3 denial", dec, err)
		}
		if want := "User_D1: request signature invalid"; dec.Reason != want {
			t.Fatalf("reason = %q, want %q", dec.Reason, want)
		}
	})
}

// pollContext is a context whose Err turns Canceled at the (left+1)-th
// poll and that records the most goroutines alive at any poll. Authorize
// polls it between steps and between signature verifications, always in
// the caller's goroutine, so it needs no lock.
type pollContext struct {
	context.Context
	left          int
	maxGoroutines int
}

func (c *pollContext) Err() error {
	c.maxGoroutines = max(c.maxGoroutines, runtime.NumGoroutine())
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancellationAtEveryPoll cancels the request at each point Authorize
// polls its context, one run per point, up to the run that is approved:
// every earlier run must abort with context.Canceled — never deny —
// count authz_canceled_total once and write no audit entry, and one of
// the points must lie inside Step 3, where the signatures are verified.
func TestCancellationAtEveryPoll(t *testing.T) {
	forEachDecider(t, func(t *testing.T, authorize authorizeFunc, reg *obs.Registry, log *audit.Log, req AccessRequest) {
		inCosign := false
		for polls := 0; ; polls++ {
			if polls > 100 {
				t.Fatal("request still canceled after 100 context polls")
			}
			canceled, entries := counterTotal(reg, MetricCanceled), log.Len()
			dec, err := authorize(&pollContext{Context: context.Background(), left: polls}, req)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDenied) || dec.Allowed {
				t.Fatalf("canceled at poll %d: dec=%+v err=%v, want an abort with context.Canceled", polls, dec, err)
			}
			if got := counterTotal(reg, MetricCanceled); got != canceled+1 {
				t.Fatalf("canceled at poll %d: counter %d -> %d, want +1", polls, canceled, got)
			}
			if got := log.Len(); got != entries {
				t.Fatalf("canceled at poll %d: audit log grew %d -> %d", polls, entries, got)
			}
			inCosign = inCosign || dec.DeniedStep == StepCosign
		}
		if !inCosign {
			t.Fatal("no cancellation point inside Step 3")
		}
		if got := counterTotal(reg, MetricDenied); got != 0 {
			t.Fatalf("denied counter = %d, want 0", got)
		}
	})
}

// TestAuthorizeStartsNoGoroutine: a decision runs entirely in the
// caller's goroutine — no more goroutines are alive at any context poll
// of 1000 warm 2-signer requests, or after them, than before.
func TestAuthorizeStartsNoGoroutine(t *testing.T) {
	forEachDecider(t, func(t *testing.T, authorize authorizeFunc, _ *obs.Registry, _ *audit.Log, req AccessRequest) {
		before := runtime.NumGoroutine()
		ctx := &pollContext{Context: context.Background(), left: 1 << 30}
		for i := 0; i < 1000; i++ {
			if _, err := authorize(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		if after := runtime.NumGoroutine(); ctx.maxGoroutines > before || after > before {
			t.Fatalf("goroutines: %d before, up to %d during, %d after", before, ctx.maxGoroutines, after)
		}
	})
}

// counterTotal sums a counter across all label combinations (snapshot
// names carry labels as a {k="v"} suffix).
func counterTotal(reg *obs.Registry, name string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			total += c.Value
		}
	}
	return total
}
