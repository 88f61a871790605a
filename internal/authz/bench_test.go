package authz

import (
	"context"
	"fmt"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/wal"
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

// BenchmarkApplyRevocation times one RA membership revocation on a
// journaled server that first accepted 0, 100 or 1 000 unrelated group
// links: the revocation's audit entry — rendered, encoded and journaled
// once per revocation — must not grow with that history; audit-B/op is
// the journaled audit record's size. Every iteration applies the
// revocation to the same published state.
func BenchmarkApplyRevocation(b *testing.B) {
	f := newFixture(b)
	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		b.Fatal(err)
	}
	links := make([]pki.Signed[pki.GroupLink], 1000)
	for i := range links {
		if links[i], err = f.est.AA.IssueGroupLink(fmt.Sprintf("G_hist%d", i), "G_read", clock.NewInterval(50, 5000)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, prior := range []int{0, 100, 1000} {
		s := f.newServer(audit.NewLog())
		j := &sizeJournal{}
		if err := s.SetJournal(j); err != nil {
			b.Fatal(err)
		}
		for _, l := range links[:prior] {
			if err := s.Apply(ctx, GroupLink{Cert: l}); err != nil {
				b.Fatal(err)
			}
		}
		base := s.state.Load()
		b.Run(fmt.Sprintf("links=%d", prior), func(b *testing.B) {
			j.auditBytes = 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Apply(ctx, Revocation{Cert: rev}); err != nil {
					b.Fatal(err)
				}
				s.state.Store(base)
			}
			b.ReportMetric(float64(j.auditBytes)/float64(b.N), "audit-B/op")
		})
	}
}

// sizeJournal discards what it is given, counting its audit bytes.
type sizeJournal struct {
	n          uint64
	auditBytes int
}

func (j *sizeJournal) Append(rec wal.Record, _ bool) (uint64, error) {
	if rec.Type == wal.TypeAudit {
		j.auditBytes += len(rec.Body)
	}
	j.n++
	return j.n, nil
}

func (j *sizeJournal) Empty() bool { return j.n == 0 }
