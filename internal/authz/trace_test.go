package authz

import (
	"context"
	"strings"
	"testing"

	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
)

// TestAuthorizationDerivationTrace is experiment E10: the approved write's
// derivation must follow the exact statement structure of Section 4.3 —
// initial beliefs, then per message the A10 / jurisdiction / A22 / A9
// chain, ending in A38 producing "G_write says write O" — whether a fresh
// server decides it on the serving path (the residual decider's cold arm)
// or on the replay.
func TestAuthorizationDerivationTrace(t *testing.T) {
	f := newFixture(t)
	for _, residuals := range []bool{true, false} {
		name := "serving path"
		if !residuals {
			name = "replay"
		}
		t.Run(name, func(t *testing.T) {
			server := f.newServer(nil)
			server.SetResidualsEnabled(residuals)
			requireSection43Trace(t, server, f.writeRequest(t, []byte("traced"), "User_D1", "User_D2"))
		})
	}
}

func requireSection43Trace(t *testing.T, server *Server, req AccessRequest) {
	t.Helper()
	dec, err := server.Authorize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Proof.Check(); err != nil {
		t.Fatalf("inconsistent proof: %v", err)
	}
	steps := dec.Proof.Steps()

	// Ordered milestones of the protocol, matched against rule names and
	// conclusions in sequence.
	milestones := []struct {
		rule       string // substring of the rule name ("" = any)
		conclusion string // substring of the conclusion ("" = any)
	}{
		{"assumption", "⇒"},            // statement 1: KAA ⇒ CP
		{"assumption", "controls"},     // jurisdiction schemas
		{"A10", "said"},                // message 1-1: CA1 said ...
		{"A22", "at_"},                 // jurisdiction localizes
		{"A9", "says"},                 // reduction strips at
		{"A3", "⇒"},                    // statement 16: Kuser ⇒ User_D1
		{"A10", "said"},                // message 1-3: AA said ...
		{"A3", "Group(G_write)"},       // statement 22: CP(2,3) ⇒ G_write
		{"A38", "Group(G_write) says"}, // statement 25
	}
	idx := 0
	for _, st := range steps {
		if idx >= len(milestones) {
			break
		}
		m := milestones[idx]
		if (m.rule == "" || strings.Contains(st.Rule, m.rule)) &&
			(m.conclusion == "" || strings.Contains(st.Conclusion.String(), m.conclusion)) {
			idx++
		}
	}
	if idx != len(milestones) {
		t.Fatalf("derivation missing milestone %d (%+v); trace:\n%s",
			idx, milestones[idx], dec.Proof)
	}

	// Every conclusion in the trace must be in the canonical syntax: the
	// parser round-trips the non-schema formulas.
	parsed := 0
	for _, st := range steps {
		s := st.Conclusion.String()
		if strings.Contains(s, "∀") {
			continue // jurisdiction schemas are assumption-only forms
		}
		got, err := logic.ParseFormula(s)
		if err != nil {
			t.Fatalf("step %d conclusion %q does not parse: %v", st.ID, s, err)
		}
		if !logic.FormulaEqual(got, st.Conclusion) {
			t.Fatalf("step %d round trip changed: %s vs %s", st.ID, st.Conclusion, got)
		}
		parsed++
	}
	if parsed < 10 {
		t.Errorf("only %d parseable conclusions; trace unexpectedly small", parsed)
	}
}

// TestApplyCRL verifies the batch revocation path: a CRL from the RA
// revokes G_write; entries are applied once and the write is then denied.
func TestApplyCRL(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	if _, err := server.Authorize(context.Background(), f.writeRequest(t, []byte("ok"), "User_D1", "User_D2")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ra.Revoke(f.writeAC, f.clk.Now()); err != nil {
		t.Fatal(err)
	}
	crl, err := f.ra.PublishCRL()
	if err != nil {
		t.Fatal(err)
	}
	if len(crl.Cert.Entries) == 0 {
		t.Fatal("RA's CRL empty after Revoke")
	}
	// The fixture RA is shared across tests, so the CRL may carry
	// revocations recorded by earlier tests; at least the fresh G_write
	// revocation must apply.
	// Each newly revoked entry is its own snapshot (and journal record):
	// the watermark advances by exactly the number applied.
	before := server.Snapshot().Watermark
	applied, err := server.applyCRL(crl)
	if err != nil {
		t.Fatal(err)
	}
	if applied < 1 {
		t.Errorf("applied = %d, want ≥ 1", applied)
	}
	if got := server.Snapshot().Watermark - before; got != uint64(applied) {
		t.Errorf("watermark advanced by %d for %d applied entries", got, applied)
	}
	// Re-applying the same CRL is a no-op.
	before = server.Snapshot().Watermark
	applied, err = server.applyCRL(crl)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Errorf("re-applied = %d, want 0", applied)
	}
	if got := server.Snapshot().Watermark - before; got != 0 {
		t.Errorf("re-applying the CRL advanced the watermark by %d", got)
	}
	f.clk.Tick()
	if _, err := server.Authorize(context.Background(), f.writeRequest(t, []byte("no"), "User_D1", "User_D2")); err == nil {
		t.Fatal("write approved after CRL revocation")
	}
}

// TestApplyCRLUntrustedIssuer: a CRL signed by a foreign key is refused.
func TestApplyCRLUntrustedIssuer(t *testing.T) {
	f := newFixture(t)
	server := f.newServer(nil)
	rogue, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	crl, err := pki.NewRevocationRegistry("EvilRA", rogue.AsSigner()).Publish(f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.applyCRL(crl); err == nil {
		t.Fatal("untrusted CRL accepted")
	}
	// Right issuer name, wrong key: also refused.
	crl2, err := pki.NewRevocationRegistry("RA", rogue.AsSigner()).Publish(f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.applyCRL(crl2); err == nil {
		t.Fatal("mis-keyed CRL accepted")
	}
}
