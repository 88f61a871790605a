package logic

// Fork-isolation regression tests for the layered (sealed base + overlay)
// store and proof. Run with -race: concurrent forks of one sealed base must
// derive into disjoint overlays, with no write — belief, membership
// revocation or key revocation — visible through the base or a sibling fork.

import (
	"fmt"
	"sync"
	"testing"

	"jointadmin/internal/clock"
)

// sealed reports whether every belief lives in the store's immutable
// base: the overlay is empty, so Clone is O(1).
func sealed(b *BeliefStore) bool {
	return len(b.entries) == 0 && len(b.revoked) == 0 && len(b.revokedKeys) == 0
}

// sealedBaseStore builds a store with n base beliefs plus a membership and
// a bound key, then seals it.
func sealedBaseStore(t *testing.T, n int) (*BeliefStore, MemberOf, KeySpeaksFor) {
	t.Helper()
	s := NewBeliefStore()
	for i := 0; i < n; i++ {
		s.Add(Prop{Name: fmt.Sprintf("base-%d", i)}, 1, i+1)
	}
	mem := MemberOf{Who: P("alice"), T: During(0, 1000), G: G("G_write")}
	key := KeySpeaksFor{K: "K_alice", T: During(0, 1000), Who: P("alice")}
	s.Add(mem, 1, n+1)
	s.Add(key, 1, n+2)
	s.Seal()
	if !sealed(s) {
		t.Fatal("store not sealed after Seal")
	}
	return s, mem, key
}

func TestForkIsolationConcurrent(t *testing.T) {
	const (
		baseN = 64
		forks = 16
		adds  = 32
	)
	base, mem, key := sealedBaseStore(t, baseN)

	clones := make([]*BeliefStore, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := base.Clone()
			clones[i] = c
			for j := 0; j < adds; j++ {
				c.Add(Prop{Name: fmt.Sprintf("fork-%d-%d", i, j)}, 10, 1000+i*adds+j)
			}
			// Each fork revokes the shared membership and key locally.
			c.Revoke(mem.Who, mem.G, 50, 2000+i)
			c.RevokeKey(key.K, 50)
			// Base contents must remain readable through the fork.
			if _, ok := c.Holds(Prop{Name: "base-0"}); !ok {
				t.Errorf("fork %d lost base belief", i)
			}
			if len(c.All()) != baseN+2+adds {
				t.Errorf("fork %d: Len = %d, want %d", i, len(c.All()), baseN+2+adds)
			}
		}(i)
	}
	wg.Wait()

	// The sealed base saw none of it.
	if got := len(base.All()); got != baseN+2 {
		t.Errorf("base Len = %d after forks, want %d", got, baseN+2)
	}
	if base.Revoked(mem.Who, mem.G, 100) {
		t.Error("fork revocation leaked into base")
	}
	if base.KeyRevoked(key.K, 100) {
		t.Error("fork key revocation leaked into base")
	}
	if _, ok := base.KeyFor("alice", 100); !ok {
		t.Error("base lost key belief")
	}
	if _, ok := base.Holds(mem); !ok {
		t.Error("base lost membership belief")
	}
	if !sealed(base) {
		t.Error("base no longer sealed")
	}

	// No fork sees a sibling's overlay.
	for i, c := range clones {
		if !c.Revoked(mem.Who, mem.G, 100) {
			t.Errorf("fork %d lost its own revocation", i)
		}
		if !c.KeyRevoked(key.K, 100) {
			t.Errorf("fork %d lost its own key revocation", i)
		}
		sib := (i + 1) % forks
		if _, ok := c.Holds(Prop{Name: fmt.Sprintf("fork-%d-0", sib)}); ok {
			t.Errorf("fork %d sees fork %d's belief", i, sib)
		}
	}
}

// TestForkIsolationEngine exercises the same property one level up:
// concurrent Forks of a sealed engine derive independently, and premise
// references into the shared proof prefix stay resolvable from each fork.
func TestForkIsolationEngine(t *testing.T) {
	clk := clock.New(1)
	eng := NewEngine("P", clk)
	baseStep := eng.Assume(Prop{Name: "anchor"}, "initial belief")
	for i := 0; i < 20; i++ {
		eng.Assume(Prop{Name: fmt.Sprintf("seed-%d", i)}, "")
	}
	eng.Seal() // that a sealed Fork is O(1) is TestForkSealedAllocsFlat's
	baseLen := eng.Proof().Len()
	if baseLen != 21 {
		t.Fatalf("sealed proof has %d steps, want 21", baseLen)
	}

	const forks = 8
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := eng.Fork()
			id := f.Proof().Append("test", []int{baseStep},
				Prop{Name: fmt.Sprintf("derived-%d", i)}, clk.Now(), "")
			if id != baseLen+1 {
				t.Errorf("fork %d: first suffix step id = %d, want %d", i, id, baseLen+1)
			}
			// The base premise must resolve through the shared prefix.
			st, ok := step(f.Proof(), baseStep)
			if !ok || !FormulaEqual(st.Conclusion, Prop{Name: "anchor"}) {
				t.Errorf("fork %d: base step %d unresolved", i, baseStep)
			}
			if err := f.Proof().Check(); err != nil {
				t.Errorf("fork %d: proof check: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if got := eng.Proof().Len(); got != baseLen {
		t.Errorf("base proof grew to %d steps, want %d", got, baseLen)
	}
}

// TestForkSealedAllocsFlat: forking a sealed engine allocates the same
// fixed handful of objects — the engine, store and proof structs — at 10
// and at 1 000 beliefs. A regression to deep-copying the base shows up as
// extra allocations that grow with its size.
func TestForkSealedAllocsFlat(t *testing.T) {
	const budget = 3
	allocs := func(n int) float64 {
		eng := NewEngine("P", clock.New(1))
		for i := 0; i < n; i++ {
			eng.Assume(Prop{Name: fmt.Sprintf("belief-%d", i)}, "")
		}
		eng.Seal()
		return testing.AllocsPerRun(100, func() { eng.Fork() })
	}
	small, large := allocs(10), allocs(1000)
	if small != large || large > budget {
		t.Errorf("Fork of a sealed engine: %v allocs at 10 beliefs, %v at 1000; want equal and <= %d",
			small, large, budget)
	}
}

// TestSealAfterWriteResealing: writing to a sealed store starts a new
// overlay (Sealed reports false) and a second Seal folds it back in without
// disturbing earlier layers.
func TestSealAfterWriteResealing(t *testing.T) {
	s, mem, _ := sealedBaseStore(t, 4)
	s.Add(Prop{Name: "late"}, 5, 99)
	if sealed(s) {
		t.Fatal("store sealed with non-empty overlay")
	}
	fork := s.Clone()
	s.Seal()
	if !sealed(s) {
		t.Fatal("second Seal left overlay")
	}
	if _, ok := s.Holds(Prop{Name: "late"}); !ok {
		t.Error("resealed store lost overlay belief")
	}
	if _, ok := fork.Holds(Prop{Name: "late"}); !ok {
		t.Error("fork taken before reseal lost overlay copy")
	}
	if _, ok := s.Holds(mem); !ok {
		t.Error("resealed store lost base membership")
	}
	if got := len(s.All()); got != 4+2+1 {
		t.Errorf("Len = %d, want 7", got)
	}
}

// TestSealFlattensDeepChains: repeated mutate/seal cycles must not grow the
// layer chain without bound — reads stay correct across the flatten.
func TestSealFlattensDeepChains(t *testing.T) {
	s := NewBeliefStore()
	const rounds = 3 * maxLayerDepth
	for i := 0; i < rounds; i++ {
		s.Add(Prop{Name: fmt.Sprintf("r%d", i)}, clock.Time(i), i+1)
		s.Revoke(P(fmt.Sprintf("u%d", i)), G("G"), clock.Time(i), i+1)
		s.Seal()
	}
	if d := s.base.depth; d > maxLayerDepth {
		t.Errorf("layer depth = %d, want <= %d", d, maxLayerDepth)
	}
	for i := 0; i < rounds; i++ {
		if e, ok := s.Holds(Prop{Name: fmt.Sprintf("r%d", i)}); !ok || e.Step != i+1 {
			t.Errorf("belief r%d lost across flatten (entry %+v)", i, e)
		}
		if !s.Revoked(P(fmt.Sprintf("u%d", i)), G("G"), clock.Time(rounds)) {
			t.Errorf("revocation u%d lost across flatten", i)
		}
	}
	if got := len(s.Revocations()); got != rounds {
		t.Errorf("Revocations = %d, want %d", got, rounds)
	}
}
