package jointadmin

import (
	"context"
	"errors"
	"testing"
)

// TestRekeyInvalidatesCachedCertificates: a re-key (here a leave whose
// departing domain is down) followed by Reanchor must discard everything
// the server verified under the old key epoch — the identical pre-rekey
// wire request, warm in the verified-certificate cache, is denied
// afterwards, while a freshly built request under the new epoch is
// approved.
func TestRekeyInvalidatesCachedCertificates(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	ctx := context.Background()
	spec := RequestSpec{
		Group: "G_write", Op: "write", Object: "O",
		Payload: []byte("epoch 1"), Signers: []string{"alice", "bob"},
	}
	req, err := a.NewRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cold then warm pass: the second approval runs off cached
	// certificate verifications.
	if _, err := srv.Request(ctx, req); err != nil {
		t.Fatalf("cold pre-rekey request: %v", err)
	}
	if _, err := srv.Request(ctx, req); err != nil {
		t.Fatalf("warm pre-rekey request: %v", err)
	}

	setDown(t, a, "D3")
	if _, err := a.Leave("D3"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	a.Reanchor(srv)

	if sn := srv.Authz().Snapshot(); sn.Epoch != 1 || sn.Watermark != 0 {
		t.Fatalf("post-rekey snapshot = epoch %d, watermark %d", sn.Epoch, sn.Watermark)
	}
	// The old request's threshold certificate was signed by the previous
	// AA key; neither it nor its cached verification may be honored.
	if _, err := srv.Request(ctx, req); !errors.Is(err, ErrDenied) {
		t.Fatalf("pre-rekey request after rekey: %v (want ErrDenied)", err)
	}
	// A request rebuilt under the new epoch (re-issued certificates)
	// passes on the re-anchored server.
	spec.Payload = []byte("epoch 2")
	if dec, err := a.Submit(ctx, srv, spec); err != nil || !dec.Allowed {
		t.Fatalf("post-rekey request: %+v, %v", dec, err)
	}
}

// TestRedistributionKeepsCachedCertificatesValid is the cooperative
// counterpart: a join keeps the AA key, so after Reanchor the identical
// pre-join request is approved again — re-verified in the new epoch's
// empty cache.
func TestRedistributionKeepsCachedCertificatesValid(t *testing.T) {
	a, srv := newGeneticsAlliance(t)
	ctx := context.Background()
	req, err := a.NewRequest(RequestSpec{
		Group: "G_write", Op: "write", Object: "O",
		Payload: []byte("epoch 1"), Signers: []string{"alice", "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := srv.Request(ctx, req); err != nil {
			t.Fatalf("pre-join request: %v", err)
		}
	}
	if _, err := a.Join("D4"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := a.Reanchor(srv); err != nil {
		t.Fatal(err)
	}
	if sn := srv.Authz().Snapshot(); sn.Epoch != 1 || sn.Watermark != 0 {
		t.Fatalf("post-join snapshot = epoch %d, watermark %d", sn.Epoch, sn.Watermark)
	}
	if dec, err := srv.Request(ctx, req); err != nil || !dec.Allowed {
		t.Fatalf("pre-join request after a cooperative join: %+v, %v", dec, err)
	}
}
