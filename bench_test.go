package jointadmin

// Micro-benchmarks of the facade. The paper's claims are reproduced and
// checked by `go run ./cmd/experiments` (EXPERIMENTS.md), not here.
//
//	go test -run '^$' -bench DelegationDepth -benchmem .

import (
	"context"
	"fmt"
	"testing"
)

// benchDelegChain builds a dedicated deployment holding one delegation
// chain of the given length anchored in G_read (a root grant plus
// length−1 re-delegations through distinct principals) and pre-signs a
// delegated read request by the chain's last grantee.
func benchDelegChain(b *testing.B, length int) (*Server, AccessRequest) {
	b.Helper()
	a, err := NewAlliance(fmt.Sprintf("deleg%d", length), []string{"D1", "D2", "D3"})
	if err != nil {
		b.Fatal(err)
	}
	users := make([]string, length)
	for i := range users {
		users[i] = fmt.Sprintf("d%d", i)
		if err := a.EnrollUser(a.Domains()[i%3], users[i]); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := a.NewServer("P")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{
		"G_read": {"read"},
	}, []byte("content")); err != nil {
		b.Fatal(err)
	}
	if err := a.Delegate("", users[0], "G_read", length, []string{"read"}, srv); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < length; i++ {
		if err := a.Delegate(users[i-1], users[i], "G_read", length-i, []string{"read"}, srv); err != nil {
			b.Fatal(err)
		}
	}
	req, err := a.NewRequest(RequestSpec{
		Group: "G_read", Op: "read", Object: "O",
		Signers: []string{users[length-1]}, Delegated: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv, req
}

// BenchmarkDelegationDepth measures delegated authorization against
// chain length: a bare root grant (chain=1) versus chains re-delegated
// through 4 and 16 principals. The store holds only composed,
// root-anchored chains, so the lookup is length-independent; what scales
// with length is the per-link revocation sweep over the chain's path.
func BenchmarkDelegationDepth(b *testing.B) {
	ctx := context.Background()
	for _, length := range []int{1, 4, 16} {
		srv, req := benchDelegChain(b, length)
		b.Run(fmt.Sprintf("chain=%d", length), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := srv.Request(ctx, req); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Request(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
