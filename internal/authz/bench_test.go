package authz

import (
	"context"
	"testing"

	"jointadmin/internal/acl"
)

// BenchmarkAuthorizeWarm times one warm approval on the residual decider —
// every certificate cached, the group's residue compiled — for the two
// shapes that dominate a serving mix: a 2-of-3 joint write and a 1-of-3
// threshold read. Run with -benchmem: allocations per decision are what
// the lean approve path keeps down (TestResidualAllocsReduced and
// TestWarmReadAllocs hold the budgets).
func BenchmarkAuthorizeWarm(b *testing.B) {
	f := newFixture(b)
	for _, c := range []struct {
		name string
		req  AccessRequest
	}{
		{"write2", f.writeRequest(b, []byte("bench"), "User_D1", "User_D2")},
		{"read1", f.thresholdRequest(b, f.readAC, acl.Read, "O", nil, "User_D3")},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := f.newServer(nil)
			ctx := context.Background()
			if _, err := s.Authorize(ctx, c.req); err != nil {
				b.Fatalf("warmup: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Authorize(ctx, c.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
