package delegation

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
)

func TestCanonicalPerms(t *testing.T) {
	if got := logic.CanonicalPerms([]string{"write", "read", "read", " write "}); got != "read,write" {
		t.Fatalf("CanonicalPerms = %q", got)
	}
	if got := logic.CanonicalPerms([]string{"read", "*"}); got != logic.PermsAll {
		t.Fatalf("wildcard member must collapse the set, got %q", got)
	}
	if !logic.PermsAllow("*", "anything") || logic.PermsAllow("*", "") {
		t.Fatal("wildcard allow semantics")
	}
	if !logic.PermsAllow("read,write", "read") || logic.PermsAllow("read,write", "append") {
		t.Fatal("set allow semantics")
	}
}

func TestIntersectPerms(t *testing.T) {
	got, err := logic.IntersectPerms("read,write", "append,read")
	if err != nil || got != "read" {
		t.Fatalf("intersect = %q, %v", got, err)
	}
	if got, err := logic.IntersectPerms("*", "read,write"); err != nil || got != "read,write" {
		t.Fatalf("wildcard identity = %q, %v", got, err)
	}
	if _, err := logic.IntersectPerms("read", "write"); !errors.Is(err, logic.ErrSchemaMismatch) {
		t.Fatalf("disjoint sets must fail, got %v", err)
	}
}

// link builds a raw certificate-link formula from delegator to subject
// (Path is the single delegator name, as idealized from the wire cert).
func link(delegator, subject string, depth int, perms string, b, e clock.Time) logic.Delegates {
	return logic.Delegates{
		To:    logic.P(subject).Bind(logic.KeyID("k_" + subject)),
		G:     logic.G("G"),
		Depth: depth,
		Perms: perms,
		Path:  delegator,
		T:     logic.During(b, e).On("AA"),
	}
}

// permSubset reports whether every operation of a is in b.
func permSubset(a, b string) bool {
	if b == logic.PermsAll {
		return true
	}
	if a == logic.PermsAll {
		return false
	}
	for _, op := range strings.Split(a, ",") {
		if !logic.PermsAllow(b, op) {
			return false
		}
	}
	return true
}

// TestChainCompositionInvariants: along any randomly generated valid
// chain, depth strictly decreases per hop, the composed permission set is
// contained in every link's set, the composed validity interval is
// contained in every link's interval, and the path names every delegator
// in order.
func TestChainCompositionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opPool := []string{"read", "write", "append", "delete"}
	randPerms := func() string {
		if rng.Intn(6) == 0 {
			return logic.PermsAll
		}
		// Always include "read" so chains never go disjoint in this test.
		ops := []string{"read"}
		for _, op := range opPool[1:] {
			if rng.Intn(2) == 0 {
				ops = append(ops, op)
			}
		}
		return logic.CanonicalPerms(ops)
	}
	for trial := 0; trial < 200; trial++ {
		hops := 1 + rng.Intn(5)
		names := make([]string, hops+1)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		links := make([]logic.Delegates, hops)
		delegator := ""
		for i := 0; i < hops; i++ {
			b := clock.Time(rng.Intn(50))
			e := b + clock.Time(100+rng.Intn(200))
			links[i] = link(delegator, names[i+1], hops-i+rng.Intn(3), randPerms(), b, e)
			delegator = names[i+1]
		}
		composed := links[0] // root grant is believed as-is
		for i := 1; i < hops; i++ {
			next, err := logic.DelegationCompose(composed, links[i])
			if err != nil {
				if errors.Is(err, logic.ErrDepthExhausted) || errors.Is(err, logic.ErrTimeMismatch) {
					break // legitimately refused; invariants below cover accepted prefixes
				}
				t.Fatalf("trial %d hop %d: %v", trial, i, err)
			}
			if next.Depth >= composed.Depth {
				t.Fatalf("trial %d: depth did not strictly decrease: %d -> %d", trial, composed.Depth, next.Depth)
			}
			if !permSubset(next.Perms, composed.Perms) || !permSubset(next.Perms, links[i].Perms) {
				t.Fatalf("trial %d: perms %q escape a link", trial, next.Perms)
			}
			if next.T.Time() < composed.T.Time() || next.T.End() > composed.T.End() ||
				next.T.Time() < links[i].T.Time() || next.T.End() > links[i].T.End() {
				t.Fatalf("trial %d: interval %s escapes a link", trial, next.T)
			}
			wantPath := composed.Path
			if wantPath == "" {
				wantPath = composed.To.Name
			} else {
				wantPath = wantPath + ">" + composed.To.Name
			}
			if next.Path != wantPath {
				t.Fatalf("trial %d: path %q, want %q", trial, next.Path, wantPath)
			}
			composed = next
		}
	}
}

func TestComposeDepthExhaustion(t *testing.T) {
	root := link("", "alice", 0, "read", 0, 100)
	child := link("alice", "bob", 5, "read", 0, 100)
	if _, err := logic.DelegationCompose(root, child); !errors.Is(err, logic.ErrDepthExhausted) {
		t.Fatalf("want ErrDepthExhausted, got %v", err)
	}
	// Depth 1 permits exactly one more hop, and the result is exhausted.
	root.Depth = 1
	out, err := logic.DelegationCompose(root, child)
	if err != nil {
		t.Fatal(err)
	}
	if out.Depth != 0 {
		t.Fatalf("depth = %d, want 0", out.Depth)
	}
	if _, err := logic.DelegationCompose(out, link("bob", "carol", 1, "read", 0, 100)); !errors.Is(err, logic.ErrDepthExhausted) {
		t.Fatalf("want ErrDepthExhausted on third hop, got %v", err)
	}
}

func TestComposeDisjointIntervals(t *testing.T) {
	root := link("", "alice", 3, "read", 0, 50)
	child := link("alice", "bob", 1, "read", 60, 100)
	if _, err := logic.DelegationCompose(root, child); !errors.Is(err, logic.ErrTimeMismatch) {
		t.Fatalf("want ErrTimeMismatch, got %v", err)
	}
}

func TestComposeWrongDelegator(t *testing.T) {
	root := link("", "alice", 3, "read", 0, 100)
	child := link("mallory", "bob", 1, "read", 0, 100)
	if _, err := logic.DelegationCompose(root, child); !errors.Is(err, logic.ErrSchemaMismatch) {
		t.Fatalf("want ErrSchemaMismatch, got %v", err)
	}
}

func TestDelegationMember(t *testing.T) {
	d := link("", "alice", 2, "read,write", 0, 100)
	mem, err := logic.DelegationMember(d, "read", 50)
	if err != nil {
		t.Fatal(err)
	}
	if mem.G.Name != "G" || mem.Who.String() != d.To.String() {
		t.Fatalf("membership %s malformed", mem)
	}
	if _, err := logic.DelegationMember(d, "delete", 50); err == nil {
		t.Fatal("op outside the permission set must refuse")
	}
	if _, err := logic.DelegationMember(d, "read", 101); err == nil {
		t.Fatal("time outside the validity interval must refuse")
	}
}

func TestLinks(t *testing.T) {
	d := link("", "carol", 0, "read", 0, 100)
	d.Path = "alice>bob"
	got := Links(d)
	want := []string{"alice", "bob", "carol"}
	if len(got) != len(want) {
		t.Fatalf("Links = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Links = %v, want %v", got, want)
		}
	}
}

// TestReachableCycleTermination: a cyclic bounded graph terminates and
// budgets stay clamped by the entry edge.
func TestReachableCycleTermination(t *testing.T) {
	edges := []Edge{
		{From: "A", To: "B", Bounded: true, Depth: 3},
		{From: "B", To: "C", Bounded: true, Depth: 3},
		{From: "C", To: "A", Bounded: true, Depth: 3}, // cycle
		{From: "C", To: "D", Bounded: true, Depth: 0},
		{From: "D", To: "E", Bounded: true, Depth: 9}, // needs budget ≥ 1
	}
	best := Reachable(edges, "A")
	if _, ok := best["E"]; ok {
		t.Fatalf("E reached despite exhausted budget at D: %v", best)
	}
	for _, g := range []string{"B", "C", "D"} {
		if _, ok := best[g]; !ok {
			t.Fatalf("%s unreachable: %v", g, best)
		}
	}
	if best["B"] != 3 || best["C"] != 2 || best["D"] != 0 {
		t.Fatalf("budgets %v", best)
	}
}

// TestReachableUnboundedLinksPreserveBudget: GroupSpeaksFor edges do not
// consume budget, so arbitrarily long inheritance chains stay reachable.
func TestReachableUnboundedLinksPreserveBudget(t *testing.T) {
	var edges []Edge
	prev := "g0"
	for i := 1; i <= 40; i++ {
		cur := prev + "x"
		edges = append(edges, Edge{From: prev, To: cur})
		prev = cur
	}
	edges = append(edges, Edge{From: prev, To: "end", Bounded: true, Depth: 7})
	best := Reachable(edges, "g0")
	if best[prev] != Unbounded {
		t.Fatalf("inheritance chain consumed budget: %d", best[prev])
	}
	if best["end"] != 7 {
		t.Fatalf("clamp to edge depth failed: %d", best["end"])
	}
}

// TestReachableMonotoneInDepth: raising every edge's depth bound never
// shrinks the reachable set.
func TestReachableMonotoneInDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groups := []string{"A", "B", "C", "D", "E", "F"}
	for trial := 0; trial < 100; trial++ {
		var edges []Edge
		for i := 0; i < 10; i++ {
			from := groups[rng.Intn(len(groups))]
			to := groups[rng.Intn(len(groups))]
			if from == to {
				continue
			}
			edges = append(edges, Edge{From: from, To: to, Bounded: true, Depth: rng.Intn(3)})
		}
		low := Reachable(edges, "A")
		raised := make([]Edge, len(edges))
		copy(raised, edges)
		for i := range raised {
			raised[i].Depth += 1 + rng.Intn(3)
		}
		high := Reachable(raised, "A")
		for g, b := range low {
			hb, ok := high[g]
			if !ok || hb < b {
				t.Fatalf("trial %d: raising depths lost %s (%d -> %d, ok=%v)", trial, g, b, hb, ok)
			}
		}
	}
}

// TestReachableMatchesEffectiveGroups: the pure walk agrees with the
// belief store's EffectiveGroups on randomly generated relation graphs —
// two independent implementations of the same traversal semantics.
func TestReachableMatchesEffectiveGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	groups := []string{"A", "B", "C", "D", "E", "F", "G2", "H"}
	for trial := 0; trial < 100; trial++ {
		store := logic.NewBeliefStore()
		var edges []Edge
		step := 0
		for i := 0; i < 12; i++ {
			from := groups[rng.Intn(len(groups))]
			to := groups[rng.Intn(len(groups))]
			if from == to {
				continue
			}
			step++
			if rng.Intn(2) == 0 {
				store.Add(logic.GroupSpeaksFor{
					Sub: logic.G(from), T: logic.During(0, 1000).On("AA"), Sup: logic.G(to),
				}, 0, step)
				edges = append(edges, Edge{From: from, To: to})
			} else {
				d := rng.Intn(4)
				store.Add(logic.GroupGraphEdge{
					Sub: logic.G(from), T: logic.During(0, 1000).On("AA"), Depth: d, Sup: logic.G(to),
				}, 0, step)
				edges = append(edges, Edge{From: from, To: to, Bounded: true, Depth: d})
			}
		}
		want := Reachable(edges, "A")
		got := store.EffectiveGroups(logic.G("A"), 500)
		if len(got) != len(want) {
			t.Fatalf("trial %d: EffectiveGroups %v vs Reachable %v", trial, got, want)
		}
		for _, g := range got {
			if _, ok := want[g.Name]; !ok {
				t.Fatalf("trial %d: %s reported reachable but pure walk disagrees", trial, g.Name)
			}
		}
	}
}
