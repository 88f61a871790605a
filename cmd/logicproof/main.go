// Command logicproof prints the authorization-protocol derivations of
// Section 4.3 / Appendix E as numbered proof traces: the Figure 2(b)
// write flow (2-of-3), the Figure 2(d) read flow (1-of-3), the
// revocation reasoning, the residual flow (the same joint write decided
// twice — first by the full replay, then on the serving path's warm
// residual checklist — to show the two proofs coincide), and the
// delegation flow (a bounded-depth chain composed link by link, exercised
// downstream, then severed by a mid-chain revocation).
//
// Every first-touch decision is printed from the 4-step replay — the
// serving decider's oracle, selected with SetResidualsEnabled(false) —
// because its proof spells out every statement of Section 4.3.
//
// It can also parse and echo formulas in the logic's canonical syntax:
//
//	go run ./cmd/logicproof [-flow write|read|revoke|residual|delegation]
//	go run ./cmd/logicproof -parse 'User_D1|Ku1 ⇒_[t50,t5000],AA Group(G_write)'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"jointadmin"
	"jointadmin/internal/logic"
)

func main() {
	flow := flag.String("flow", "write", "derivation to print: write, read, revoke, residual, or delegation")
	parse := flag.String("parse", "", "parse a formula in canonical syntax and echo its structure")
	flag.Parse()
	if *parse != "" {
		if err := runParse(*parse); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*flow); err != nil {
		log.Fatal(err)
	}
}

func runParse(src string) error {
	f, err := logic.ParseFormula(src)
	if err != nil {
		return err
	}
	fmt.Printf("parsed:    %T\n", f)
	fmt.Printf("canonical: %s\n", f)
	round, err := logic.ParseFormula(f.String())
	if err != nil || !logic.FormulaEqual(round, f) {
		return fmt.Errorf("round trip failed: %v", err)
	}
	fmt.Println("round trip: ok")
	return nil
}

func run(flow string) error {
	a, err := jointadmin.NewAlliance("genetics", []string{"D1", "D2", "D3"})
	if err != nil {
		return err
	}
	users := []string{"User_D1", "User_D2", "User_D3"}
	for i, u := range users {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			return err
		}
	}
	if err := a.GrantThreshold("G_write", 2, users...); err != nil {
		return err
	}
	if err := a.GrantThreshold("G_read", 1, users...); err != nil {
		return err
	}
	srv, err := a.NewServer("P")
	if err != nil {
		return err
	}
	srv.Authz().SetResidualsEnabled(false)
	if err := srv.CreateObject("O", map[string][]string{
		"G_write": {"write"},
		"G_read":  {"read"},
	}, []byte("Object O")); err != nil {
		return err
	}

	ctx := context.Background()
	jointWrite := func(content string) (jointadmin.Decision, error) {
		return a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_write", Op: "write", Object: "O",
			Payload: []byte(content), Signers: []string{"User_D1", "User_D2"},
		})
	}

	switch flow {
	case "write":
		fmt.Println("Figure 2(b): User_D1 and User_D2 jointly request `write O`")
		fmt.Println("(messages 1-1 .. 1-4, derivation steps 1–4 of Section 4.3)")
		fmt.Println()
		dec, err := jointWrite("new content")
		if err != nil {
			return err
		}
		fmt.Println(dec.Proof.String())
		fmt.Printf("Step 4: (G_write, write O) ∈ ACL_O and validity spans the request ⇒ ACCESS APPROVED\n")
		printTrace(srv, dec.RequestID)
	case "read":
		fmt.Println("Figure 2(d): User_D3 alone requests `read O` (1-of-3 suffices)")
		fmt.Println()
		dec, err := a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_read", Op: "read", Object: "O", Signers: []string{"User_D3"},
		})
		if err != nil {
			return err
		}
		fmt.Println(dec.Proof.String())
		fmt.Printf("Step 4: (G_read, read O) ∈ ACL_O ⇒ ACCESS APPROVED; returned %q\n", dec.Data)
		printTrace(srv, dec.RequestID)
	case "revoke":
		fmt.Println("Reasoning about revocation (Section 4.3, message 2 / statement 26)")
		fmt.Println()
		if _, err := jointWrite("x"); err != nil {
			return err
		}
		if err := a.Revoke("G_write", srv); err != nil {
			return err
		}
		a.Clock().Tick()
		_, err := jointWrite("y")
		if !errors.Is(err, jointadmin.ErrDenied) {
			return fmt.Errorf("expected denial after revocation, got %v", err)
		}
		fmt.Println(srv.Audit().Render())
		fmt.Println("After message 2, P believes ¬(CP'(2,3) ⇒ G_write): the belief can no")
		fmt.Println("longer be obtained for t ≥ t8, so the same joint request is DENIED:")
		fmt.Printf("  %v\n", err)
		printSnapshot(srv)
	case "residual":
		fmt.Println("Residual compilation: the same joint write decided twice.")
		fmt.Println("First decision replays the full Section 4.3 derivation (cold")
		fmt.Println("certificate cache); the second runs the residual checklist")
		fmt.Println("compiled on the group's first use — recorded invariant steps spliced")
		fmt.Println("with fresh request-variable leaf checks. The proofs coincide.")
		fmt.Println()
		req, err := a.NewRequest(jointadmin.RequestSpec{
			Group: "G_write", Op: "write", Object: "O",
			Payload: []byte("new content"), Signers: []string{"User_D1", "User_D2"},
		})
		if err != nil {
			return err
		}
		replayed, err := srv.Request(ctx, req)
		if err != nil {
			return err
		}
		fmt.Println("--- first decision (full replay) ---")
		fmt.Println(replayed.Proof.String())
		printTrace(srv, replayed.RequestID)
		srv.Authz().SetResidualsEnabled(true)
		residual, err := srv.Request(ctx, req)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("--- second decision (residual fast path) ---")
		fmt.Println(residual.Proof.String())
		printTrace(srv, residual.RequestID)
		printSnapshot(srv)
	case "delegation":
		fmt.Println("Delegation: a bounded-depth chain composed link by link.")
		fmt.Println("AA jointly signs a root grant (User_D1, depth 1) and a chain")
		fmt.Println("link (User_D1 > User_D2, depth 0); each acceptance derives the")
		fmt.Println("composed root-anchored belief. The downstream grantee reads")
		fmt.Println("through the chain; revoking the mid-chain delegator severs it.")
		fmt.Println()
		if err := a.Delegate("", "User_D1", "G_read", 1, []string{"read"}, srv); err != nil {
			return err
		}
		if err := a.Delegate("User_D1", "User_D2", "G_read", 0, []string{"read"}, srv); err != nil {
			return err
		}
		dec, err := a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_read", Op: "read", Object: "O",
			Signers: []string{"User_D2"}, Delegated: true,
		})
		if err != nil {
			return err
		}
		fmt.Println("--- delegated read through the two-link chain ---")
		fmt.Println(dec.Proof.String())
		printTrace(srv, dec.RequestID)
		if err := a.RevokeDelegation("User_D1", "G_read", srv); err != nil {
			return err
		}
		a.Clock().Tick()
		_, err = a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_read", Op: "read", Object: "O",
			Signers: []string{"User_D2"}, Delegated: true,
		})
		if !errors.Is(err, jointadmin.ErrDenied) {
			return fmt.Errorf("expected denial after mid-chain revocation, got %v", err)
		}
		fmt.Println()
		fmt.Println("After revoking User_D1, every chain routed through it is severed;")
		fmt.Println("the same delegated request is DENIED:")
		fmt.Printf("  %v\n", err)
		printSnapshot(srv)
	default:
		fmt.Fprintf(os.Stderr, "unknown flow %q (want write, read, revoke, residual, or delegation)\n", flow)
		os.Exit(2)
	}
	return nil
}

// printSnapshot summarizes the server's current belief snapshot: its
// version (key epoch / mutation watermark) and belief count. The snapshot
// is immutable, so the summary is consistent even while requests run.
func printSnapshot(srv *jointadmin.Server) {
	sn := srv.Authz().Snapshot()
	fmt.Printf("\nbelief snapshot: epoch %d, watermark %d, %d beliefs held\n",
		sn.Epoch, sn.Watermark, len(sn.Beliefs()))
}

// printTrace shows the per-step derivation trace the server recorded for
// the request in its audit log (the same trace policyctl retrieves with
// -cmd audit).
func printTrace(srv *jointadmin.Server, requestID string) {
	entry, ok := srv.Audit().ByRequestID(requestID)
	if !ok || entry.TraceString() == "" {
		return
	}
	fmt.Printf("\ntrace [%s]: %s\n", requestID, entry.TraceString())
}
