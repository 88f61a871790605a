// Command quickstart walks through the paper's running example (Figures 1
// and 2): a genetics research company (D1), a hospital (D2) and a
// pharmaceutical company (D3) jointly administer access to research data.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"jointadmin"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Forming the alliance (Figure 1) ==")
	a, err := jointadmin.NewAlliance("genetics", []string{"D1", "D2", "D3"})
	if err != nil {
		return err
	}
	fmt.Printf("domains: %v — the coalition AA's private key exists only as shares\n", a.Domains())

	for i, u := range []string{"alice", "bob", "carol"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			return err
		}
		fmt.Printf("enrolled %s in %s (identity certificate from CA_%s)\n", u, a.Domains()[i], a.Domains()[i])
	}

	fmt.Println("\n== Issuing threshold attribute certificates (Figure 2a/2c) ==")
	// Write needs 2-of-3 signatures; read needs 1-of-3.
	if err := a.GrantThreshold("G_write", 2, "alice", "bob", "carol"); err != nil {
		return err
	}
	if err := a.GrantThreshold("G_read", 1, "alice", "bob", "carol"); err != nil {
		return err
	}
	subs, err := a.BoundSubjectsOf("G_write")
	if err != nil {
		return err
	}
	fmt.Println("G_write certificate (2-of-3), jointly signed by all domains; subjects:")
	for _, s := range subs {
		fmt.Printf("  %s bound to key %s…\n", s.Name, s.KeyID[:12])
	}

	srv, err := a.NewServer("P")
	if err != nil {
		return err
	}
	if err := srv.CreateObject("O", map[string][]string{
		"G_write": {"write"},
		"G_read":  {"read"},
	}, []byte("gene sequence v1")); err != nil {
		return err
	}
	fmt.Println("\nserver P manages Object O with ACL_O = {(G_write, write), (G_read, read)}")

	ctx := context.Background()
	write := func(content string, signers ...string) (jointadmin.Decision, error) {
		return a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_write", Op: "write", Object: "O", Payload: []byte(content), Signers: signers,
		})
	}

	fmt.Println("\n== Figure 2(b): joint write request, 2 of 3 co-signers ==")
	dec, err := write("gene sequence v2", "alice", "bob")
	if err != nil {
		return err
	}
	fmt.Printf("APPROVED via %s — derivation ended in: %s\n", dec.Group, dec.Reason)

	fmt.Println("\n== A unilateral write is denied (Requirement III) ==")
	if _, err := write("sneaky", "alice"); errors.Is(err, jointadmin.ErrDenied) {
		fmt.Printf("DENIED as required: %v\n", err)
	} else {
		return fmt.Errorf("unilateral write was not denied: %v", err)
	}

	fmt.Println("\n== Figure 2(d): read request, 1 of 3 suffices ==")
	dec, err = a.Submit(ctx, srv, jointadmin.RequestSpec{
		Group: "G_read", Op: "read", Object: "O", Signers: []string{"carol"},
	})
	if err != nil {
		return err
	}
	fmt.Printf("APPROVED: carol read %q\n", dec.Data)

	fmt.Println("\n== Revocation (Section 4.3, message 2) ==")
	if err := a.Revoke("G_write", srv); err != nil {
		return err
	}
	a.Clock().Tick()
	if _, err := write("late", "alice", "bob"); errors.Is(err, jointadmin.ErrDenied) {
		fmt.Println("post-revocation write DENIED (believe-until-revoked)")
	} else {
		return fmt.Errorf("post-revocation write was not denied: %v", err)
	}

	fmt.Println("\n== Derivation trace of the approved write (Section 4.3 steps 1–4) ==")
	approved := srv.Audit().Entries()[0]
	fmt.Println(approved.ProofTrace)
	return nil
}
