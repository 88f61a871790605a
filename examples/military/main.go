// Command military models the military-coalition motivation (Gibson, NDSS
// 2001; Section 3.3 of the paper): a seven-nation coalition jointly owns
// route-communication plans, uses m-of-n threshold sharing of the AA key
// for availability under domain outages, and survives coalition dynamics
// (a nation joining, another withdrawing) through AA re-keying with mass
// certificate revocation and re-distribution.
//
//	go run ./examples/military
package main

import (
	"context"
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
	nations := []string{"US", "UK", "FR", "DE", "IT", "CA", "AU"}
	fmt.Printf("== Forming a %d-nation coalition ==\n", len(nations))
	a, err := jointadmin.NewAlliance("taskforce", nations)
	if err != nil {
		return err
	}
	officers := make([]string, len(nations))
	for i, n := range nations {
		officers[i] = "officer_" + n
		if err := a.EnrollUser(n, officers[i]); err != nil {
			return err
		}
	}
	// Route plans: any 3 of the 7 liaison officers may update them
	// (operational availability), any 1 may read them.
	if err := a.GrantThreshold("G_routes_write", 3, officers...); err != nil {
		return err
	}
	if err := a.GrantThreshold("G_routes_read", 1, officers...); err != nil {
		return err
	}
	srv, err := a.NewServer("OpsServer")
	if err != nil {
		return err
	}
	if err := srv.CreateObject("RoutePlan", map[string][]string{
		"G_routes_write": {"write"},
		"G_routes_read":  {"read"},
	}, []byte("route plan rev A")); err != nil {
		return err
	}

	fmt.Println("\n== 3-of-7 write with a minimal quorum ==")
	ctx := context.Background()
	writePlan := func(srv *jointadmin.Server, plan string, signers ...string) (jointadmin.Decision, error) {
		return a.Submit(ctx, srv, jointadmin.RequestSpec{
			Group: "G_routes_write", Op: "write", Object: "RoutePlan", Payload: []byte(plan), Signers: signers,
		})
	}
	dec, err := writePlan(srv, "route plan rev B", officers[0], officers[3], officers[6])
	if err != nil {
		return err
	}
	fmt.Printf("APPROVED via %s\n", dec.Group)
	if _, err := writePlan(srv, "rev C", officers[0], officers[1]); err != nil {
		fmt.Printf("2-of-7 write DENIED as required: threshold is 3\n")
	} else {
		return fmt.Errorf("2-signer write approved")
	}

	fmt.Println("\nm-of-n availability under domain outages (Section 3.3): go run ./cmd/experiments -only e3")

	fmt.Println("\n== Coalition dynamics (Section 6 / E7) ==")
	report, err := a.Join("NL")
	if err != nil {
		return err
	}
	fmt.Printf("NL joins: epoch %d, %d certificates revoked, %d re-issued, keygen attempts %d\n",
		report.Epoch, report.CertsRevoked, report.CertsReissued, report.KeygenAttempts)
	report, err = a.Leave("IT")
	if err != nil {
		return err
	}
	fmt.Printf("IT withdraws: epoch %d, %d revoked, %d re-issued; its officer is dropped from all certificates\n",
		report.Epoch, report.CertsRevoked, report.CertsReissued)

	// Servers anchored before the dynamics are stale; a re-anchored
	// server accepts the re-issued certificates.
	srv2, err := a.NewServer("OpsServer2")
	if err != nil {
		return err
	}
	if err := srv2.CreateObject("RoutePlan", map[string][]string{
		"G_routes_write": {"write"},
	}, []byte("route plan rev B")); err != nil {
		return err
	}
	dec, err = writePlan(srv2, "route plan rev C", officers[0], officers[3], officers[5])
	if err != nil {
		return err
	}
	fmt.Printf("post-dynamics 3-of-n write APPROVED at epoch %d via %s\n", report.Epoch, dec.Group)
	return nil
}
