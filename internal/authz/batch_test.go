package authz

import (
	"context"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/authority"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// batchFixture is a deployment where both co-signers live in one domain,
// so their cache-miss identity certificates form a real k=2 batch under
// a single CA key.
type batchFixture struct {
	clk     *clock.Clock
	users   map[string]*pki.KeyPair
	idCerts map[string]pki.Signed[pki.Identity]
	ac      pki.Signed[pki.ThresholdAttribute]
	anchors TrustAnchors
}

func newBatchFixture(t *testing.T) *batchFixture {
	t.Helper()
	clk := clock.New(100)
	est, err := authority.EstablishWithDealer("AA", []string{"D1", "D2"}, 512, clk)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := authority.NewDomainCA("CA1", 512, clk)
	if err != nil {
		t.Fatal(err)
	}
	f := &batchFixture{
		clk:     clk,
		users:   make(map[string]*pki.KeyPair),
		idCerts: make(map[string]pki.Signed[pki.Identity]),
	}
	var subs []pki.BoundSubject
	for _, u := range []string{"alice", "bob"} {
		kp, err := pki.GenerateKeyPair(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		ca.Register(u, kp.Public())
		idc, err := ca.IssueIdentity(u, clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		f.users[u] = kp
		f.idCerts[u] = idc
		subs = append(subs, pki.BoundSubject{Name: u, KeyID: kp.KeyID()})
	}
	f.ac, err = est.AA.IssueThreshold("G_pair", 2, subs, clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	f.anchors = TrustAnchors{
		AAName:  "AA",
		AAKey:   est.AA.Public(),
		Domains: []string{"D1", "D2"},
		CAKeys:  map[string]sharedrsa.PublicKey{"CA1": ca.Public()},
	}
	return f
}

func (f *batchFixture) newServer(t *testing.T) *Server {
	t.Helper()
	store := acl.NewStore(f.clk)
	objACL, err := acl.NewACL(acl.Entry{Group: "G_pair", Perms: []acl.Permission{acl.Write}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("OB", objACL, []byte("v1"), "G_pair"); err != nil {
		t.Fatal(err)
	}
	return NewServer("P", f.clk, f.anchors, store, nil)
}

func (f *batchFixture) request(t *testing.T, payload []byte) AccessRequest {
	t.Helper()
	req := AccessRequest{Threshold: f.ac}
	for _, u := range []string{"alice", "bob"} {
		req.Identities = append(req.Identities, f.idCerts[u])
		r, err := SignRequest(u, f.clk.Now(), acl.Write, "OB", payload, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	return req
}

// TestBatchVerifyAuthorize drives a cold-cache authorize through the
// batched Step 1 and checks decision and metrics, then a warm repeat
// (cache hits, no further batches).
func TestBatchVerifyAuthorize(t *testing.T) {
	f := newBatchFixture(t)
	s := f.newServer(t)
	s.SetBatchVerify(true)
	reg := obs.NewRegistry()
	s.Instrument(reg)

	dec, err := s.Authorize(context.Background(), f.request(t, []byte("v2")))
	if err != nil || !dec.Allowed {
		t.Fatalf("batched authorize: dec=%+v err=%v", dec, err)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricBatchVerifyBatches); got != 1 {
		t.Errorf("batches = %d, want 1", got)
	}
	if got := snap.CounterValue(MetricBatchVerifyItems); got != 2 {
		t.Errorf("batched items = %d, want 2", got)
	}
	if got := snap.CounterValue(MetricBatchVerifyFallbacks); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}

	if dec, err = s.Authorize(context.Background(), f.request(t, []byte("v3"))); err != nil || !dec.Allowed {
		t.Fatalf("warm repeat: dec=%+v err=%v", dec, err)
	}
	if got := reg.Snapshot().CounterValue(MetricBatchVerifyBatches); got != 1 {
		t.Errorf("warm repeat grew batches to %d; cache hits should skip batching", got)
	}
}

// TestBatchVerifyDenialParity pins the error taxonomy: a tampered
// identity certificate produces the identical denial with batching off
// and on (the batch path attributes via per-certificate fallback).
func TestBatchVerifyDenialParity(t *testing.T) {
	f := newBatchFixture(t)
	req := f.request(t, []byte("v2"))
	bad := req.Identities[1]
	bad.SigS = "1234" + bad.SigS[4:]
	req.Identities[1] = bad

	authorize := func(batch bool) error {
		s := f.newServer(t)
		s.SetBatchVerify(batch)
		_, err := s.Authorize(context.Background(), req)
		return err
	}
	errOff := authorize(false)
	errOn := authorize(true)
	if errOff == nil || errOn == nil {
		t.Fatalf("tampered cert not denied: off=%v on=%v", errOff, errOn)
	}
	if errOff.Error() != errOn.Error() {
		t.Errorf("denial diverges:\n  off: %v\n  on:  %v", errOff, errOn)
	}
	if !strings.Contains(errOn.Error(), "identity certificate invalid") {
		t.Errorf("unexpected denial: %v", errOn)
	}
}
