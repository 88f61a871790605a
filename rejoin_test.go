package jointadmin

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jointadmin/internal/authz"
)

// TestRejoinDeniesPreLeaveRequest: dave of D4 signs a read before D4
// leaves; after the leave (CA_D4 is not anchored) and after D4 rejoins
// the request is denied. A certificate naming dave, even one a re-grant
// has since displaced, or the revocation of his identity, keeps D4's CA
// from being kept, so the rejoin draws a new key under which his
// identity does not verify. A delegation to dave does not: D4 rejoins
// under its old key and his identity verifies again, but the delegation
// was not carried past the leave.
func TestRejoinDeniesPreLeaveRequest(t *testing.T) {
	for _, tc := range []struct {
		name           string
		delegated      bool
		revokeIdentity bool
		// regrant re-grants G_dave to alice after dave's request is
		// built, displacing the certificate the request carries.
		regrant bool
		// keptKey says D4 rejoins under the CA key it held; step and
		// reason deny the pre-leave request after the rejoin.
		keptKey      bool
		step, reason string
	}{
		{"granted", false, false, false, false, authz.StepCerts, "identity certificate invalid"},
		{"regranted", false, false, true, false, authz.StepCerts, "identity certificate invalid"},
		{"identity revoked", false, true, false, false, authz.StepCerts, "identity certificate invalid"},
		{"delegated", true, false, false, true, authz.StepThreshold, "no believed chain for dave"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAlliance("rejoin", []string{"D1", "D2", "D3"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Join("D4"); err != nil {
				t.Fatal(err)
			}
			if err := a.EnrollUser("D4", "dave"); err != nil {
				t.Fatal(err)
			}
			if err := a.EnrollUser("D1", "alice"); err != nil {
				t.Fatal(err)
			}
			if err := a.GrantThreshold("G_read", 1, "alice"); err != nil {
				t.Fatal(err)
			}
			read := spec("G_dave", "read", "O", nil, "dave")
			if tc.delegated {
				read = RequestSpec{Group: "G_read", Op: "read", Object: "O", Signers: []string{"dave"}, Delegated: true}
			} else if err := a.GrantThreshold("G_dave", 1, "dave"); err != nil {
				t.Fatal(err)
			}
			srv, err := a.NewServer("P")
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.CreateObject("O", map[string][]string{"G_dave": {"read"}, "G_read": {"read"}}, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if tc.delegated {
				if err := a.Delegate("", "dave", "G_read", 0, []string{"read"}, srv); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			a.Clock().Tick()
			req, err := a.NewRequest(read)
			if err != nil {
				t.Fatal(err)
			}
			if dec, err := srv.Request(ctx, req); err != nil || !dec.Allowed {
				t.Fatalf("dave's read before the leave: %+v, %v", dec, err)
			}
			if tc.revokeIdentity {
				if err := a.RevokeIdentity("dave", srv); err != nil {
					t.Fatal(err)
				}
			}
			if tc.regrant {
				if err := a.GrantThreshold("G_dave", 1, "alice"); err != nil {
					t.Fatal(err)
				}
			}
			before := a.Coalition().Anchors(0).CAKeys["CA_D4"].KeyID()
			for _, ev := range []struct {
				verb         string
				change       func(string) error
				step, reason string
			}{
				{"leave", func(d string) error { _, err := a.Leave(d); return err }, authz.StepCerts, "untrusted CA CA_D4"},
				{"rejoin", func(d string) error { _, err := a.Join(d); return err }, tc.step, tc.reason},
			} {
				if err := ev.change("D4"); err != nil {
					t.Fatal(err)
				}
				if err := a.Reanchor(srv); err != nil {
					t.Fatal(err)
				}
				a.Clock().Tick()
				dec, err := srv.Request(ctx, req)
				if !errors.Is(err, ErrDenied) || dec.DeniedStep != ev.step || !strings.Contains(dec.Reason, ev.reason) {
					t.Errorf("dave's pre-leave read after the %s: step %q, reason %q, %v; want denied at %q for %q",
						ev.verb, dec.DeniedStep, dec.Reason, err, ev.step, ev.reason)
				}
			}
			if kept := a.Coalition().Anchors(0).CAKeys["CA_D4"].KeyID() == before; kept != tc.keptKey {
				t.Errorf("D4 rejoined under the CA key it held: %v, want %v", kept, tc.keptKey)
			}
		})
	}
}
