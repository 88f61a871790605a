// Command audittrail demonstrates the jointly owned auditing application
// of Section 2: every authorization decision at the coalition server
// carries the full logic derivation that justified it, so coalition
// auditors can verify that access policy was enforced — including the
// denials caused by forged or under-signed requests.
//
//	go run ./examples/audittrail
package main

import (
	"context"
	"fmt"
	"log"

	"jointadmin"
	"jointadmin/internal/audit"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	a, err := jointadmin.NewAlliance("fin-consortium", []string{"BankA", "BankB", "Regulator"})
	if err != nil {
		return err
	}
	users := []string{"ops_a", "ops_b", "auditor"}
	for i, u := range users {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			return err
		}
	}
	// Settlement ledger: writes need both banks AND the regulator
	// (3-of-3); reads need any single principal.
	if err := a.GrantThreshold("G_settle", 3, users...); err != nil {
		return err
	}
	if err := a.GrantThreshold("G_view", 1, users...); err != nil {
		return err
	}
	srv, err := a.NewServer("Ledger")
	if err != nil {
		return err
	}
	if err := srv.CreateObject("Settlements", map[string][]string{
		"G_settle": {"write"},
		"G_view":   {"read"},
	}, []byte("balance: 0")); err != nil {
		return err
	}

	ctx := context.Background()
	settle := func(balance string, signers ...string) error {
		_, err := a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_settle", Op: "write", Object: "Settlements", Payload: []byte(balance), Signers: signers,
		})
		return err
	}
	// A legitimate 3-of-3 settlement.
	if err := settle("balance: 1_000_000", users...); err != nil {
		return err
	}
	// Two banks trying to settle without the regulator: denied.
	_ = settle("balance: 2_000_000", "ops_a", "ops_b")
	// The auditor reads the ledger.
	if _, err := a.Submit(ctx, srv, jointadmin.RequestSpec{
		Group: "G_view", Op: "read", Object: "Settlements", Signers: []string{"auditor"},
	}); err != nil {
		return err
	}
	// Revocation after BankB's key-handling incident.
	if err := a.Revoke("G_settle", srv); err != nil {
		return err
	}
	a.Clock().Tick()
	_ = settle("balance: 9", users...)

	fmt.Println("== Audit log (one line per decision) ==")
	fmt.Print(srv.Audit().Render())

	fmt.Println("\n== Decisions by outcome ==")
	fmt.Printf("approved:   %d\n", len(srv.Audit().ByOutcome(audit.Approved)))
	fmt.Printf("denied:     %d\n", len(srv.Audit().ByOutcome(audit.Denied)))
	fmt.Printf("revocation: %d\n", len(srv.Audit().ByOutcome(audit.RevocationRecorded)))

	fmt.Println("\n== Full derivation behind the approved settlement ==")
	approved := srv.Audit().ByOutcome(audit.Approved)[0]
	fmt.Println(approved.ProofTrace)

	fmt.Println("== Why the under-signed settlement was denied ==")
	denied := srv.Audit().ByOutcome(audit.Denied)[0]
	fmt.Printf("reason: %s\n", denied.Reason)
	return nil
}
