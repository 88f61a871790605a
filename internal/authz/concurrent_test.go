package authz

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
)

// TestAuthorizeConcurrentWithMutations is the -race stress test for the
// snapshot design: many goroutines run Authorize lock-free while belief
// mutators (group links and revocations of an unrelated group) swap
// snapshots underneath them. Every write must still be approved — the
// mutations never touch G_write — and the race detector must stay quiet.
func TestAuthorizeConcurrentWithMutations(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
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
			if err := server.ProcessGroupLink(links[j]); err != nil {
				errCh <- fmt.Errorf("group link %d: %w", j, err)
				return
			}
			if err := server.ProcessRevocation(revs[j]); err != nil {
				errCh <- fmt.Errorf("revocation %d: %w", j, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
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
	if err := server.ProcessRevocation(rev); err != nil {
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
	if err := cold.ProcessRevocation(rev); err != nil {
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
	if err := server.ProcessGroupLink(link); err != nil {
		t.Fatal(err)
	}
	if sn := server.Snapshot(); sn.Epoch != 0 || sn.Watermark != 1 {
		t.Fatalf("after mutation: %+v", sn)
	}
	// Re-anchoring bumps the epoch, resets the watermark, and drops the
	// derived group-link belief (the belief set is rebuilt from anchors).
	nBase := len(server.Snapshot().Beliefs())
	server.Reanchor(f.anchors(0))
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
