package load

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// tinyProfile keeps fixture setup fast enough for the unit-test tier
// while still producing every request kind (seeded: the 48-entry pool
// holds all four).
func tinyProfile() LoadProfile {
	return LoadProfile{Principals: 500, Objects: 8, PoolSize: 48, Seed: 1}
}

// decidePool decides every pooled request once and reports the first one
// whose outcome contradicts its expectation.
func decidePool(ctx context.Context, f *LoadFixture) error {
	for i := range f.Pool() {
		pr := &f.Pool()[i]
		dec, err := f.Server.Authorize(ctx, pr.Req)
		if dec.Allowed != pr.WantAllow || (err != nil && dec.Reason == "") {
			return fmt.Errorf("pool[%d] kind=%s object=%s: allowed=%v want %v (err=%v reason=%s)",
				i, pr.Kind, pr.Object, dec.Allowed, pr.WantAllow, err, dec.Reason)
		}
	}
	return nil
}

func TestLoadFixtureDecisions(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, pr := range f.Pool() {
		kinds[pr.Kind]++
	}
	for _, k := range []string{"write", "read", "selective", "deny"} {
		if kinds[k] == 0 {
			t.Errorf("pool has no %q requests: %v", k, kinds)
		}
	}
	if err := decidePool(context.Background(), f); err != nil {
		t.Fatal(err)
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
	// Every mutation swapped the snapshot; pooled requests must still
	// decide to their expected outcome.
	if err := decidePool(ctx, f); err != nil {
		t.Fatalf("post-churn %v", err)
	}
}

// TestLoadConcurrentChurn decides the whole pool from two goroutines
// while a third applies six Churn mutations, then once more after the
// last one: no decision may contradict its expectation. Run with -race.
func TestLoadConcurrentChurn(t *testing.T) {
	f, err := NewLoadFixture(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					if err := decidePool(ctx, f); err != nil {
						t.Errorf("after churn: %v", err)
					}
					return
				default:
				}
				if err := decidePool(ctx, f); err != nil {
					t.Errorf("during churn: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if verb, err := f.Churn(ctx); err != nil {
			t.Errorf("churn %d (%s): %v", i, verb, err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// poolDigest hashes what the seed decides of each pooled request: kind,
// object, expected outcome, the group certificate's name, quorum and
// member names, and each signed part's signer, operation and payload.
// Keys and signatures are freshly generated per fixture, so they are
// left out.
func poolDigest(f *LoadFixture) string {
	h := sha256.New()
	for _, pr := range f.Pool() {
		th := pr.Req.Threshold.Cert
		fmt.Fprintf(h, "%s|%s|%v|%s|%d|", pr.Kind, pr.Object, pr.WantAllow, th.Group, th.M)
		for _, s := range th.Subjects {
			fmt.Fprintf(h, "%s,", s.Name)
		}
		fmt.Fprintf(h, "|%s|%s|", pr.Req.Single.Cert.Group, pr.Req.Single.Cert.Subject.Name)
		for _, r := range pr.Req.Requests {
			fmt.Fprintf(h, "%s:%s:%s:%q,", r.User, r.Op, r.Object, r.Payload)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadPoolGolden pins the pools the benchmark's in-process workloads
// draw at their -quick sizes (benchmark/workloads.go), so a change to the
// fixture that alters what is measured fails here first.
func TestLoadPoolGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    LoadProfile
		want string
	}{
		{"warm_decide", LoadProfile{Principals: 5000, Objects: 100, PoolSize: 64, ZipfS: 1.2, Seed: 1},
			"474097a84638678ac60d7a5270e0fbce0ea40c424031e267db229ff210a205ae"},
		{"churn_publish", LoadProfile{Principals: 5000, Objects: 200, PoolSize: 128, ZipfS: 1.1, Seed: 1},
			"29b70b2fd1940d85346ee73812a2194e4184ad2adf198b1aafdb6ee1c3ab01f0"},
	} {
		f, err := NewLoadFixture(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := poolDigest(f); got != tc.want {
			t.Errorf("%s: pool digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
