package authz

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

var (
	// stepLine matches the ID of a rendered proof line, after the line
	// break that precedes it: a newline, or its JSON escape in a
	// journaled body.
	stepLine = regexp.MustCompile(`(\n|\\n) +([0-9]+)\. `)
	// citedIDs matches a proof line's premise list.
	citedIDs = regexp.MustCompile(`from \[([0-9 ]+)\]`)
)

// renumberSteps replaces every step ID in text — a rendered derivation or
// a journaled audit body holding one — by its line's rank, so that two
// renderings of the same derivation at different offsets in their
// proofs compare equal.
func renumberSteps(t *testing.T, text string) string {
	t.Helper()
	rank := map[string]string{}
	for _, m := range stepLine.FindAllStringSubmatch(text, -1) {
		rank[m[2]] = "#" + strconv.Itoa(len(rank)+1)
	}
	text = stepLine.ReplaceAllStringFunc(text, func(s string) string {
		m := stepLine.FindStringSubmatch(s)
		return m[1] + "  " + rank[m[2]] + ". "
	})
	return citedIDs.ReplaceAllStringFunc(text, func(s string) string {
		ids := strings.Fields(citedIDs.FindStringSubmatch(s)[1])
		for i, id := range ids {
			r, ok := rank[id]
			if !ok {
				t.Fatalf("premise %s cited but not a line of the derivation", id)
			}
			ids[i] = r
		}
		return "from [" + strings.Join(ids, " ") + "]"
	})
}

// TestRevocationTraceIndependentOfHistory: a membership revocation's
// audit entry holds the derivation of the revocation, not the server's
// proof history. The same RA revocation applied on a fresh server and
// on one that first accepted 40 unrelated group links renders the same
// derivation, up to its step IDs — in the in-memory log and in the
// journaled audit record alike — and the derivation is complete: every
// premise it cites is one of its lines, and it ends in the revocation.
func TestRevocationTraceIndependentOfHistory(t *testing.T) {
	f := newFixture(t)
	rev, err := f.ra.Revoke(f.writeAC, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	links := make([]pki.Signed[pki.GroupLink], 40)
	for i := range links {
		if links[i], err = f.est.AA.IssueGroupLink(fmt.Sprintf("G_hist%d", i), "G_read", clock.NewInterval(50, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	// run applies the prior links and then the revocation, and returns
	// the entry's trace as the log hands it out and the journaled audit
	// bodies (none when unjournaled).
	run := func(prior int, journaled bool) (string, [][]byte) {
		log := audit.NewLog()
		srv := f.newServer(log)
		j := &auditJournal{}
		if journaled {
			if err := srv.SetJournal(j); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		for _, l := range links[:prior] {
			if err := srv.Apply(ctx, GroupLink{Cert: l}); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Apply(ctx, Revocation{Cert: rev}); err != nil {
			t.Fatal(err)
		}
		got := log.ByOutcome(audit.RevocationRecorded)
		if len(got) != 1 {
			t.Fatalf("%d revocation entries, want 1", len(got))
		}
		return got[0].ProofTrace, j.bodies
	}

	fresh, _ := run(0, false)
	busy, _ := run(len(links), false)
	for _, trace := range []string{fresh, busy} {
		lines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
		if lines[0] != "Derivation at P:" {
			t.Fatalf("trace header %q", lines[0])
		}
		if last := lines[len(lines)-1]; !strings.Contains(last, "[revocation (believe-until-revoked) from [") {
			t.Errorf("last line %q is not the revocation step", last)
		}
		renumberSteps(t, trace) // fails on a cited ID that is not a line
	}
	if nf, nb := strings.Count(fresh, "\n"), strings.Count(busy, "\n"); nf != nb {
		t.Errorf("revocation trace has %d lines on a fresh server, %d after %d group links", nf, nb, len(links))
	}
	if a, b := renumberSteps(t, fresh), renumberSteps(t, busy); a != b {
		t.Errorf("traces differ beyond step IDs:\nfresh:\n%s\nafter links:\n%s", a, b)
	}

	_, freshBodies := run(0, true)
	_, busyBodies := run(len(links), true)
	if len(freshBodies) != 1 || len(busyBodies) != 1 {
		t.Fatalf("journaled %d and %d audit records, want 1 each", len(freshBodies), len(busyBodies))
	}
	if a, b := renumberSteps(t, string(freshBodies[0])), renumberSteps(t, string(busyBodies[0])); a != b {
		t.Errorf("journaled audit records differ beyond step IDs:\nfresh: %s\nafter links: %s", a, b)
	}
}
