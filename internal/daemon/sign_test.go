package daemon

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"strings"
	"testing"
	"time"

	"jointadmin"
	"jointadmin/internal/acl"
	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// TestSignWriteDefaultsToWriteGroup: a sign of a write with no -group is
// signed for G_write, as the write verb is, so a follower approves it.
func TestSignWriteDefaultsToWriteGroup(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, f, _ := startWriterAndFollower(ctx, t)
	rep := d.Handle(ctx, Command{Cmd: "sign", Op: "write", Data: "v2", Signers: []string{"alice", "bob"}})
	if !rep.OK || rep.Detail != "signed write request for G_write" {
		t.Fatalf("sign: %+v", rep)
	}
	waitCaughtUp(ctx, t, d, f)
	if rep := f.Handle(ctx, Command{Cmd: "authorize", Data: rep.Data}); !rep.OK || !strings.HasPrefix(rep.Detail, "approved via G_write") {
		t.Fatalf("follower authorize: %+v", rep)
	}
}

// TestSignFaultRefused gives carol a key with one bit of dP flipped. Her
// signature fails its check at every layer that signs — KeyPair.Sign,
// authz.SignRequest, Alliance.NewRequest — and a daemon read with it is
// refused as sign_fault before any decision, while alice still reads.
func TestSignFaultRefused(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{Domains: []string{"D1", "D2", "D3"}, Users: []string{"alice", "bob", "carol"}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsa.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	key.Precomputed.Dp.SetBit(key.Precomputed.Dp, 1, key.Precomputed.Dp.Bit(1)^1)
	faulty, err := pki.NewKeyPair(key)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := d.alliance.Coalition().UserKey("carol")
	if err != nil {
		t.Fatal(err)
	}
	*kp = *faulty

	if _, err := kp.Sign([]byte("m")); !errors.Is(err, sharedrsa.ErrSignFault) {
		t.Errorf("KeyPair.Sign: %v, want ErrSignFault", err)
	}
	if _, err := authz.SignRequest("carol", d.alliance.Clock().Now(), acl.Read, d.object, nil, kp); !errors.Is(err, sharedrsa.ErrSignFault) {
		t.Errorf("authz.SignRequest: %v, want ErrSignFault", err)
	}
	if _, err := d.alliance.NewRequest(jointadmin.RequestSpec{Group: "G_read", Op: "read", Object: d.object, Signers: []string{"carol"}}); !errors.Is(err, sharedrsa.ErrSignFault) {
		t.Errorf("Alliance.NewRequest: %v, want ErrSignFault", err)
	}

	ctx := context.Background()
	if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); rep.OK {
		t.Fatalf("read with the faulty key approved: %+v", rep)
	}
	snap := reg.Snapshot()
	if n := snap.CounterValue(`daemon_command_errors_total{cmd="read",kind="sign_fault"}`); n != 1 {
		t.Errorf("sign_fault errors %d, want 1", n)
	}
	if n := snap.CounterValue(authz.MetricRequests); n != 0 {
		t.Errorf("%s = %d: a request reached the decider", authz.MetricRequests, n)
	}
	if rep := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"alice"}}); !rep.OK {
		t.Fatalf("alice's read: %+v", rep)
	}
	if h, ok := reg.Snapshot().HistogramValueOf(metricRequestSignSeconds); !ok || h.Count != 2 {
		t.Errorf("%s observed %+v, want both reads", metricRequestSignSeconds, h)
	}
}
