// Package delegation is the relationship subsystem: bounded-depth
// delegation chains and group-graph traversal layered on the paper's
// membership logic. The formula nodes, the checked axioms and the
// permission-set helpers live in internal/logic (Delegates,
// GroupGraphEdge, DelegationCompose, DelegationMember, CanonicalPerms,
// PermsAllow); this package holds the subsystem's engine-facing surface —
// the chain-link list, a pure reachability walk kept as the independent
// oracle for internal/logic's RelationWalk (which the belief store and
// the residual compiler both run), the metric names, and the catalog of
// the eight ReBAC scenarios the suite mirrors (the OpenFGA table:
// inheritance, guardian traversal, exclusion, wildcard, emergency
// context, attenuation, depth exhaustion, mid-chain revocation).
package delegation

import (
	"jointadmin/internal/logic"
)

// Metric names exported by the subsystem (registered by internal/authz;
// cataloged in docs/OPERATIONS.md and linted by scripts/check.sh).
const (
	// MetricChains counts delegation chains accepted (root grants and
	// composed extensions) across the server's lifetime.
	MetricChains = "delegation_chains_total"
	// MetricDepthExhausted counts chain extensions refused because the
	// delegator's remaining depth was zero.
	MetricDepthExhausted = "delegation_depth_exhausted_total"
	// MetricGraphLinks counts group-graph edges accepted.
	MetricGraphLinks = "delegation_graph_links_total"
	// MetricLinkRevocationDenials counts delegation-backed requests denied
	// because a chain link (subject or any delegator on the path) was
	// revoked.
	MetricLinkRevocationDenials = "delegation_link_revocation_denials_total"
)

// Links returns every principal name whose revocation kills the composed
// delegation d: the delegators along the path plus the subject itself.
func Links(d logic.Delegates) []string {
	return append(logic.PathNames(d.Path), d.To.Name)
}

// Edge is one relation-graph edge for the pure reachability walk: either
// a GroupSpeaksFor link (budget-preserving privilege inheritance) or a
// bounded GroupGraphEdge (costs one unit of budget, clamps the remainder
// to Depth).
type Edge struct {
	From, To string
	Bounded  bool
	Depth    int // only meaningful when Bounded
}

// Unbounded is the starting traversal budget (effectively infinite).
const Unbounded = 1 << 30

// Reachable computes the best remaining traversal budget for every group
// reachable from start, with the budget-relaxation semantics of
// logic.RelationWalk — the walk behind BeliefStore.EffectiveGroups and
// every residue — implemented apart from it over a plain edge list, so
// property tests can check that walk against an independent oracle. A
// node is re-relaxed only when a new path strictly improves its budget,
// so the walk terminates on cyclic graphs.
func Reachable(edges []Edge, start string) map[string]int {
	best := map[string]int{start: Unbounded}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		budget := best[cur]
		for _, e := range edges {
			if e.From != cur {
				continue
			}
			nb := budget
			if e.Bounded {
				if budget < 1 {
					continue
				}
				nb = budget - 1
				if e.Depth < nb {
					nb = e.Depth
				}
			}
			if prev, seen := best[e.To]; !seen || nb > prev {
				best[e.To] = nb
				queue = append(queue, e.To)
			}
		}
	}
	return best
}

// Scenario is one entry of the eight-scenario ReBAC suite.
type Scenario struct {
	ID   int
	Name string
	// Refuses marks scenarios whose point is that the derivation must be
	// refused, not found.
	Refuses bool
	Desc    string
}

// Scenarios is the OpenFGA-mirrored catalog. The property tests
// (scenarios_test.go) and the daemon experiment (cmd/experiments e12)
// both walk this table so the two suites cannot drift apart.
var Scenarios = []Scenario{
	{1, "parent-folder inheritance", false,
		"a graph edge Folder ⇒<d> Doc lets members of the folder group act on the document group's objects"},
	{2, "guardian traversal", false,
		"a two-link chain root→guardian→ward grants the ward access through the guardian"},
	{3, "exclusion blocking", true,
		"revoking the subject in the target group refuses derivation even though a valid chain and edge exist"},
	{4, "wildcard access", false,
		"a root grant with perms \"*\" authorizes every operation without attenuation"},
	{5, "emergency context", false,
		"a narrow validity window (break-glass) authorizes inside the window and refuses after it"},
	{6, "chain attenuation", false,
		"composed permissions are the intersection of every link; an op dropped mid-chain is refused downstream"},
	{7, "depth exhaustion", true,
		"extending a chain past the delegable depth bound is refused at install time"},
	{8, "mid-chain revocation", true,
		"revoking a delegator on the path denies every downstream grant, across restart and on replicas"},
}
