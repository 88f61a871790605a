package jointadmin

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRevokeCoversDisplacedGrant: a re-grant of a group displaces the
// certificate a request already carries but revokes nothing, so the
// group's revocation must reach the displaced certificate too. dave
// builds a read under G_x, G_x is re-granted to alice, and after
// Revoke(G_x) neither dave's request nor one of alice's is approved —
// for a threshold grant and for a selective one.
func TestRevokeCoversDisplacedGrant(t *testing.T) {
	for _, selective := range []bool{false, true} {
		name := map[bool]string{false: "threshold", true: "selective"}[selective]
		t.Run(name, func(t *testing.T) {
			a, err := NewAlliance("displaced", []string{"D1", "D2", "D3"})
			if err != nil {
				t.Fatal(err)
			}
			for d, u := range map[string]string{"D1": "alice", "D2": "dave"} {
				if err := a.EnrollUser(d, u); err != nil {
					t.Fatal(err)
				}
			}
			grant := func(user string) {
				t.Helper()
				if selective {
					err = a.GrantSelective("G_x", user)
				} else {
					err = a.GrantThreshold("G_x", 1, user)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			srv, err := a.NewServer("P")
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.CreateObject("O", map[string][]string{"G_x": {"read"}}, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			grant("dave")
			a.Clock().Tick()
			daves, err := a.NewRequest(spec("G_x", "read", "O", nil, "dave"))
			if err != nil {
				t.Fatal(err)
			}
			if dec, err := srv.Request(ctx, daves); err != nil || !dec.Allowed {
				t.Fatalf("dave's read under the first grant: %+v, %v", dec, err)
			}
			grant("alice")
			a.Clock().Tick()
			if dec, err := srv.Request(ctx, daves); err != nil || !dec.Allowed {
				t.Fatalf("the re-grant revoked dave's certificate: %+v, %v", dec, err)
			}
			if err := a.Revoke("G_x", srv); err != nil {
				t.Fatal(err)
			}
			a.Clock().Tick()
			if dec, err := srv.Request(ctx, daves); !errors.Is(err, ErrDenied) || !strings.Contains(dec.Reason, "revoked") {
				t.Fatalf("dave's read after Revoke(G_x): %q, %v; want denied as revoked", dec.Reason, err)
			}
			alices, err := a.NewRequest(spec("G_x", "read", "O", nil, "alice"))
			if err != nil {
				t.Fatal(err)
			}
			if dec, err := srv.Request(ctx, alices); !errors.Is(err, ErrDenied) || !strings.Contains(dec.Reason, "revoked") {
				t.Fatalf("alice's read after Revoke(G_x): %q, %v; want denied as revoked", dec.Reason, err)
			}
		})
	}
}
