package authz

import (
	"context"
	"strings"
	"sync"
	"testing"

	"jointadmin/internal/acl"
)

// readRequest builds the 1-of-3 read request of Figure 2's read flow.
func readRequest(t *testing.T, f *fixture, signer string) AccessRequest {
	t.Helper()
	req := AccessRequest{Threshold: f.readAC}
	req.Identities = append(req.Identities, f.idCerts[signer])
	r, err := SignRequest(signer, f.clk.Now(), acl.Read, "O", nil, f.users[signer])
	if err != nil {
		t.Fatal(err)
	}
	req.Requests = append(req.Requests, r)
	return req
}

// TestPoolingDecisionParity drives an identical request sequence — the
// residual decider's cold and warm arms, reads, and three denial shapes —
// through a pooled and an unpooled server and requires bit-identical
// decisions (fields, data, errors, and full proof traces).
func TestPoolingDecisionParity(t *testing.T) {
	f := newFixture(t)

	tampered := f.writeRequest(t, []byte("evil"), "User_D1", "User_D2")
	tampered.Requests[1].Payload = []byte("other")

	reqs := []AccessRequest{
		f.writeRequest(t, []byte("v2"), "User_D1", "User_D2"), // cold arm
		f.writeRequest(t, []byte("v3"), "User_D1", "User_D2"), // warm arm
		readRequest(t, f, "User_D3"),                          // cold attribute cert
		readRequest(t, f, "User_D3"),                          // warm residual read
		f.writeRequest(t, []byte("uni"), "User_D1"),           // threshold not met
		tampered,                     // signature invalid
		readRequest(t, f, "User_D1"), // warm again after denials
	}

	type outcome struct {
		dec   Decision
		err   string
		trace string
	}
	run := func(pool bool) []outcome {
		s := f.newServer(nil)
		s.SetPooling(pool)
		var out []outcome
		for _, req := range reqs {
			dec, err := s.Authorize(context.Background(), req)
			o := outcome{dec: dec}
			if err != nil {
				o.err = err.Error()
			}
			if dec.Proof != nil {
				o.trace = dec.Proof.String()
			}
			out = append(out, o)
		}
		return out
	}

	pooled := run(true)
	plain := run(false)
	for i := range reqs {
		p, q := pooled[i], plain[i]
		if p.dec.Allowed != q.dec.Allowed || p.dec.Group != q.dec.Group ||
			p.dec.Reason != q.dec.Reason || p.dec.DeniedStep != q.dec.DeniedStep ||
			p.dec.RequestID != q.dec.RequestID || string(p.dec.Data) != string(q.dec.Data) {
			t.Errorf("request %d: decisions diverge:\npooled:   %+v\nunpooled: %+v", i, p.dec, q.dec)
		}
		if p.err != q.err {
			t.Errorf("request %d: errors diverge:\npooled:   %s\nunpooled: %s", i, p.err, q.err)
		}
		if p.trace != q.trace {
			t.Errorf("request %d: proof traces diverge\npooled:\n%s\nunpooled:\n%s", i, p.trace, q.trace)
		}
	}
}

// TestPooledNoLeakAcrossRequests reuses one pooled server across
// alternating allow/deny requests with different signer sets, so every
// scratch is recycled dirty, and requires each decision to
// reflect only its own request.
func TestPooledNoLeakAcrossRequests(t *testing.T) {
	f := newFixture(t)
	s := f.newServer(nil)
	s.SetPooling(true)
	ctx := context.Background()

	for round := 0; round < 5; round++ {
		if dec, err := s.Authorize(ctx, f.writeRequest(t, []byte("a"), "User_D1", "User_D2")); err != nil || !dec.Allowed {
			t.Fatalf("round %d write D1+D2: dec=%+v err=%v", round, dec, err)
		}
		if dec, err := s.Authorize(ctx, readRequest(t, f, "User_D3")); err != nil || !dec.Allowed || string(dec.Data) != "a" {
			t.Fatalf("round %d read D3: dec=%+v err=%v", round, dec, err)
		}
		// Denied: single signer. The reason must name this request's
		// group, not a stale one.
		dec, err := s.Authorize(ctx, f.writeRequest(t, []byte("uni"), "User_D3"))
		if err == nil || dec.Allowed {
			t.Fatalf("round %d unilateral write approved: %+v", round, dec)
		}
		if dec.Group != "G_write" || !strings.Contains(dec.Reason, "threshold not met") {
			t.Fatalf("round %d denial carries stale state: %+v", round, dec)
		}
		// A different signer pair next — stale signer keys
		// from earlier requests must not satisfy (or poison) this one.
		if dec, err := s.Authorize(ctx, f.writeRequest(t, []byte("b"), "User_D2", "User_D3")); err != nil || !dec.Allowed {
			t.Fatalf("round %d write D2+D3: dec=%+v err=%v", round, dec, err)
		}
	}
}

// TestPoolingConcurrent hammers a pooled server from several goroutines
// with a mixed allow/deny workload (the -race regression for scratch
// recycling under concurrency).
func TestPoolingConcurrent(t *testing.T) {
	f := newFixture(t)
	s := f.newServer(nil)
	s.SetPooling(true)
	write := f.writeRequest(t, []byte("w"), "User_D1", "User_D2")
	read := readRequest(t, f, "User_D3")
	uni := f.writeRequest(t, []byte("u"), "User_D1")

	// Land one write first: every write stores the same content, so the
	// readers' expectation no longer depends on which worker runs first.
	if dec, err := s.Authorize(context.Background(), write); err != nil || !dec.Allowed {
		t.Fatalf("seeding write denied: dec=%+v err=%v", dec, err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 100; i++ {
				switch (w + i) % 3 {
				case 0:
					if dec, err := s.Authorize(ctx, write); err != nil || !dec.Allowed {
						t.Errorf("worker %d: write denied: dec=%+v err=%v", w, dec, err)
						return
					}
				case 1:
					if dec, err := s.Authorize(ctx, read); err != nil || !dec.Allowed || string(dec.Data) != "w" {
						t.Errorf("worker %d: read failed: dec=%+v err=%v", w, dec, err)
						return
					}
				default:
					if dec, err := s.Authorize(ctx, uni); err == nil || dec.Allowed {
						t.Errorf("worker %d: unilateral write approved", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestResidualAllocsReduced pins the pooling win on the warm residual
// path: with pooling the per-request allocation count must come in
// under both the unpooled figure and an absolute budget, so a
// regression that quietly re-introduces garbage fails loudly.
func TestResidualAllocsReduced(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	f := newFixture(t)
	ctx := context.Background()
	measure := func(pool bool) float64 {
		s := f.newServer(nil)
		s.SetPooling(pool)
		req := f.writeRequest(t, []byte("bench"), "User_D1", "User_D2")
		if dec, err := s.Authorize(ctx, req); err != nil || !dec.Allowed {
			t.Fatalf("warmup: dec=%+v err=%v", dec, err)
		}
		return testing.AllocsPerRun(50, func() {
			if dec, err := s.Authorize(ctx, req); err != nil || !dec.Allowed {
				t.Fatalf("measured run: dec=%+v err=%v", dec, err)
			}
		})
	}
	pooled := measure(true)
	plain := measure(false)
	t.Logf("residual allocs/op: pooled=%.0f unpooled=%.0f", pooled, plain)
	if pooled >= plain {
		t.Errorf("pooling does not reduce allocations: pooled=%.0f unpooled=%.0f", pooled, plain)
	}
	// Absolute ceiling with headroom over the measured figure (76 for this
	// 2-signer write); the warm residual path must stay lean even as leaf
	// checks evolve. A per-request goroutine fan-out, closure or derived
	// context (12 allocations when there was one) does not fit under it,
	// nor does a reflective certificate fingerprint (27 allocations for
	// the three certificates when json.Marshal built it).
	const budget = 84
	if pooled > budget {
		t.Errorf("pooled residual path allocates %.0f/op, budget %d", pooled, budget)
	}
}
