package jointadmin

// The benchmark harness regenerates every quantitative claim of the paper
// (see DESIGN.md §3 and EXPERIMENTS.md). The paper has no numbered result
// tables; its claims are the Malkin-et-al timing shape (keygen ≫ joint
// signature), the Section 3.3 availability argument, the Case I vs Case
// II trust-liability comparison, and the Section 6 dynamics cost. Each
// benchmark prints/report the series the corresponding experiment needs.
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/keygenproto"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/sim"
	"jointadmin/internal/transport"
)

// ---- E1: shared RSA key generation (Boneh–Franklin) ----

func BenchmarkSharedKeyGen(b *testing.B) {
	for _, bits := range []int{128, 256, 512} {
		for _, n := range []int{3, 5, 7} {
			b.Run(fmt.Sprintf("bits=%d/n=%d", bits, n), func(b *testing.B) {
				attempts := 0
				for i := 0; i < b.N; i++ {
					res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: n, Bits: bits})
					if err != nil {
						b.Fatal(err)
					}
					attempts += res.Attempts
				}
				b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			})
		}
	}
}

// ---- E2: joint signature vs keygen ----

// benchKeys memoizes dealer-split keys per (bits, n) so signature benches
// don't pay keygen repeatedly.
var benchKeys = map[[2]int]*sharedrsa.DealerResult{}

func dealerKey(b *testing.B, bits, n int) *sharedrsa.DealerResult {
	b.Helper()
	k := [2]int{bits, n}
	if res, ok := benchKeys[k]; ok {
		return res
	}
	res, err := sharedrsa.DealerSplit(bits, n, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchKeys[k] = res
	return res
}

func BenchmarkJointSignature(b *testing.B) {
	msg := []byte("threshold attribute certificate payload")
	for _, n := range []int{3, 5, 7, 9} {
		res := dealerKey(b, 512, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sharedrsa.SignJointly(msg, res.Public, res.Shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeygenVsSign reports the headline shape of Section 3.1: shared
// key generation costs orders of magnitude more than applying one joint
// signature (Malkin et al.: 1.5–5 min vs 1.2–2 s).
func BenchmarkKeygenVsSign(b *testing.B) {
	const bits, n = 256, 3
	msg := []byte("probe")
	b.Run("keygen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: n, Bits: bits}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sign", func(b *testing.B) {
		res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: n, Bits: bits})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sharedrsa.SignJointly(msg, res.Public, res.Shares); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E3: m-of-n availability ----

func BenchmarkThresholdAvailability(b *testing.B) {
	for _, m := range []int{7, 5, 4} {
		for _, p := range []float64{0.1, 0.3} {
			b.Run(fmt.Sprintf("n=7/m=%d/p=%.1f", m, p), func(b *testing.B) {
				var rate float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunAvailability(sim.AvailabilityConfig{
						N: 7, M: m, Downtime: p, Trials: 50, Seed: int64(i), Bits: 512,
					})
					if err != nil {
						b.Fatal(err)
					}
					rate = res.Rate()
				}
				b.ReportMetric(rate, "availability")
			})
		}
	}
}

// ---- E4: forgery resistance, Case I vs Case II ----

func BenchmarkForgeryResistance(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("compromised=%d", k), func(b *testing.B) {
			var caseI, caseII int
			for i := 0; i < b.N; i++ {
				res, err := sim.RunForgery(sim.ForgeryConfig{Domains: 3, Bits: 512}, k)
				if err != nil {
					b.Fatal(err)
				}
				if res.CaseIForged {
					caseI++
				}
				if res.CaseIIForged {
					caseII++
				}
			}
			b.ReportMetric(float64(caseI)/float64(b.N), "caseI-forged")
			b.ReportMetric(float64(caseII)/float64(b.N), "caseII-forged")
		})
	}
}

// ---- E5: end-to-end authorization (Figure 2 flows) ----

type benchDeployment struct {
	a   *Alliance
	srv *Server
}

var benchDeploy *benchDeployment

func deployment(b *testing.B) *benchDeployment {
	b.Helper()
	if benchDeploy != nil {
		return benchDeploy
	}
	a, err := NewAlliance("bench", []string{"D1", "D2", "D3"})
	if err != nil {
		b.Fatal(err)
	}
	for i, u := range []string{"u1", "u2", "u3"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.GrantThreshold("G_write", 2, "u1", "u2", "u3"); err != nil {
		b.Fatal(err)
	}
	if err := a.GrantThreshold("G_read", 1, "u1", "u2", "u3"); err != nil {
		b.Fatal(err)
	}
	srv, err := a.NewServer("P")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.CreateObject("O", map[string][]string{
		"G_write": {"write"}, "G_read": {"read"},
	}, []byte("content")); err != nil {
		b.Fatal(err)
	}
	benchDeploy = &benchDeployment{a: a, srv: srv}
	return benchDeploy
}

func BenchmarkAuthorizeWrite(b *testing.B) {
	d := deployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.a.Submit(context.Background(), d.srv, spec("G_write", "write", "O", []byte("v"), "u1", "u2")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuthorizeRead(b *testing.B) {
	d := deployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.a.Submit(context.Background(), d.srv, spec("G_read", "read", "O", nil, "u3")); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E10: delegated authorization vs chain length ----

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

// ---- E6: revocation checking cost ----

func BenchmarkRevocationCheck(b *testing.B) {
	d := deployment(b)
	// Load the belief store with revocations of unrelated groups so the
	// check scans a realistic list, then measure authorized reads (each
	// performs the believe-until-revoked check).
	for i := 0; i < 50; i++ {
		g := fmt.Sprintf("G_tmp%d", i)
		if err := d.a.GrantThreshold(g, 1, "u1"); err != nil {
			b.Fatal(err)
		}
		if err := d.a.Revoke(g, d.srv); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.a.Submit(context.Background(), d.srv, spec("G_read", "read", "O", nil, "u3")); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: coalition dynamics (rekey + mass re-issue) ----

func BenchmarkCoalitionRekey(b *testing.B) {
	for _, groups := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := NewAlliance(fmt.Sprintf("dyn%d-%d", groups, i), []string{"D1", "D2", "D3"})
				if err != nil {
					b.Fatal(err)
				}
				users := []string{"u1", "u2", "u3"}
				for j, u := range users {
					if err := a.EnrollUser(a.Domains()[j], u); err != nil {
						b.Fatal(err)
					}
				}
				for g := 0; g < groups; g++ {
					if err := a.GrantThreshold(fmt.Sprintf("G%d", g), 2, users...); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				report, err := a.Join("D4")
				if err != nil {
					b.Fatal(err)
				}
				if report.CertsReissued != groups {
					b.Fatalf("reissued %d, want %d", report.CertsReissued, groups)
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkSignCorrection compares the trial-correction search of Combine
// against CombineExact with the remainder known a priori.
func BenchmarkSignCorrection(b *testing.B) {
	res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: 5, Bits: 256})
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("ablation")
	partials := make([]sharedrsa.PartialSignature, len(res.Shares))
	for i, sh := range res.Shares {
		p, err := sharedrsa.PartialSign(msg, res.Public, sh)
		if err != nil {
			b.Fatal(err)
		}
		partials[i] = p
	}
	ref, err := sharedrsa.Combine(msg, res.Public, partials, len(res.Shares))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sharedrsa.Combine(msg, res.Public, partials, len(res.Shares)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sharedrsa.CombineExact(msg, res.Public, partials, ref.Correction); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBeliefStore measures belief-store lookup with a loaded store
// (the hash-indexed design choice).
func BenchmarkBeliefStore(b *testing.B) {
	store := logic.NewBeliefStore()
	for i := 0; i < 2000; i++ {
		store.Add(logic.Prop{Name: fmt.Sprintf("p%d", i)}, 0, 1)
	}
	target := logic.Prop{Name: "p1500"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := store.Holds(target); !ok {
			b.Fatal("missing belief")
		}
	}
}

// BenchmarkTransport compares the in-memory bus with real TCP for a
// request/response round trip.
func BenchmarkTransport(b *testing.B) {
	payload := make([]byte, 1024)
	b.Run("memory", func(b *testing.B) {
		net := transport.NewMemory(transport.Faults{})
		defer net.Close()
		cli := net.Endpoint("cli")
		srv := net.Endpoint("srv")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cli.Send("srv", "req", payload); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Recv(); err != nil {
				b.Fatal(err)
			}
			if err := srv.Send("cli", "resp", payload); err != nil {
				b.Fatal(err)
			}
			if _, err := cli.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		cli, err := transport.ListenTCP("cli", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		srv, err := transport.ListenTCP("srv", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli.AddPeer("srv", srv.Addr())
		srv.AddPeer("cli", cli.Addr())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cli.Send("srv", "req", payload); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Recv(); err != nil {
				b.Fatal(err)
			}
			if err := srv.Send("cli", "resp", payload); err != nil {
				b.Fatal(err)
			}
			if _, err := cli.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShareSize reports the replicated sub-share blowup of the
// m-of-n sharing (C(n, n−m+1)).
func BenchmarkShareSize(b *testing.B) {
	res := dealerKey(b, 512, 7)
	for _, m := range []int{2, 4, 6, 7} {
		b.Run(fmt.Sprintf("n=7/m=%d", m), func(b *testing.B) {
			var subsets, holdings int
			for i := 0; i < b.N; i++ {
				ts, err := sharedrsa.Reshare(res.Public, res.Shares, m, nil)
				if err != nil {
					b.Fatal(err)
				}
				subsets = ts.SubsetCount()
				holdings = ts.HoldingsOf(1)
			}
			b.ReportMetric(float64(subsets), "subsets")
			b.ReportMetric(float64(holdings), "holdings/party")
		})
	}
}

// BenchmarkWireKeygen compares the in-process keygen against the full
// message-passing protocol (internal/keygenproto) at the same size — the
// cost of actually distributing the computation.
func BenchmarkWireKeygen(b *testing.B) {
	const bits = 96
	b.Run("in-process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: 3, Bits: bits}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire", func(b *testing.B) {
		peers := []string{"D1", "D2", "D3"}
		for i := 0; i < b.N; i++ {
			net := transport.NewMemory(transport.Faults{})
			// Register all endpoints before any party starts sending.
			eps := make([]transport.Endpoint, 3)
			for idx := range eps {
				eps[idx] = net.Endpoint(peers[idx])
			}
			errs := make(chan error, 2)
			for idx := 2; idx <= 3; idx++ {
				go func(idx int) {
					_, err := keygenproto.RunFollower(eps[idx-1], idx, peers, keygenproto.Config{Bits: bits})
					errs <- err
				}(idx)
			}
			if _, err := keygenproto.RunCoordinator(eps[0], peers, keygenproto.Config{Bits: bits}); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 2; j++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
			net.Close()
		}
	})
}

// BenchmarkDerivationOnly isolates the logic-layer cost of the Section 4.3
// derivation from the cryptography: it re-runs the engine chain on
// idealized messages with signature checking already done.
func BenchmarkDerivationOnly(b *testing.B) {
	clk := clock.New(100)
	eng := logic.NewEngine("P", clk)
	eng.Assume(logic.KeySpeaksFor{K: "KAA", T: logic.During(0, clock.Infinity).On("P"), Who: logic.P("AA")}, "")
	eng.Assume(logic.MembershipJurisdiction{Authority: logic.P("AA"), AuthorityName: "AA"}, "")
	eng.Assume(logic.SaysTimeJurisdiction{Authority: logic.P("AA"), Since: 0, Server: "P"}, "")
	cp := logic.CP(
		logic.P("U1").Bind("K1"), logic.P("U2").Bind("K2"), logic.P("U3").Bind("K3"),
	).WithThreshold(2)
	body := logic.MemberOf{Who: cp, T: logic.During(50, 1_000_000), G: logic.G("G_write")}
	cert := logic.Sign(logic.AsMessage(logic.Says{Who: logic.P("AA"), T: logic.At(95), X: logic.AsMessage(body)}), "KAA")
	key, _ := eng.Store().KeyFor("AA", 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.VerifyCertificate(cert, key); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: fork scaling (layered store vs deep copy) ----

// BenchmarkForkScaling measures Engine.Fork for bases of 10/100/1000
// beliefs, sealed versus unsealed. An unsealed engine keeps everything in
// the mutable overlay, so Fork deep-copies it — the pre-layering behavior,
// linear in base size. Sealing moves the base into immutable shared layers,
// making Fork O(1): the sealed series should be flat from n=10 to n=1000.
func BenchmarkForkScaling(b *testing.B) {
	build := func(n int) *logic.Engine {
		eng := logic.NewEngine("P", clock.New(1))
		for i := 0; i < n; i++ {
			eng.Assume(logic.Prop{Name: fmt.Sprintf("belief-%d", i)}, "")
		}
		return eng
	}
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("deepcopy/n=%d", n), func(b *testing.B) {
			eng := build(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := eng.Fork(); f == nil {
					b.Fatal("nil fork")
				}
			}
		})
		b.Run(fmt.Sprintf("sealed/n=%d", n), func(b *testing.B) {
			eng := build(n).Seal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := eng.Fork(); f == nil {
					b.Fatal("nil fork")
				}
			}
		})
	}
}
