package sharedrsa

import (
	"errors"
	"math/big"
	"testing"
)

// A proactive refresh is Redistribute with nobody leaving and nobody
// joining: every party deals a zero-sharing and keeps its index.

func refresh(t *testing.T, pk PublicKey, shares []Share) []Share {
	t.Helper()
	fresh, err := Redistribute(pk, shares, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

func TestRefreshPreservesSigningPower(t *testing.T) {
	res := sharedKey(t, 128, 3)
	fresh := refresh(t, res.Public, res.Shares)
	msg := []byte("after refresh")
	sig, err := SignJointly(msg, res.Public, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg, res.Public, sig); err != nil {
		t.Fatal(err)
	}
	if sig.Correction != 0 {
		t.Errorf("correction %d after refresh, want 0 (folded into a share)", sig.Correction)
	}
}

func TestRefreshChangesEveryShare(t *testing.T) {
	res := sharedKey(t, 128, 3)
	fresh := refresh(t, res.Public, res.Shares)
	for i := range fresh {
		if fresh[i].D.Cmp(res.Shares[i].D) == 0 {
			t.Errorf("share %d unchanged by refresh", i+1)
		}
		if fresh[i].Index != res.Shares[i].Index {
			t.Errorf("share %d index changed", i+1)
		}
	}
}

func TestRefreshInvalidatesMixedEpochs(t *testing.T) {
	// The intrusion-tolerance property: shares stolen before the refresh
	// cannot be combined with shares stolen after it.
	res := sharedKey(t, 128, 3)
	fresh := refresh(t, res.Public, res.Shares)
	msg := []byte("mixed epochs")
	mixed := []Share{res.Shares[0], fresh[1], fresh[2]}
	partials := make([]PartialSignature, len(mixed))
	for i, sh := range mixed {
		p, err := PartialSign(msg, res.Public, sh)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = p
	}
	if _, err := Combine(msg, res.Public, partials, 3); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("mixed-epoch shares produced a signature: %v", err)
	}
}

func TestRefreshRepeated(t *testing.T) {
	res := sharedKey(t, 128, 3)
	shares := res.Shares
	for range 4 {
		shares = refresh(t, res.Public, shares)
	}
	msg := []byte("many epochs later")
	sig, err := SignJointly(msg, res.Public, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg, res.Public, sig); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshValidation(t *testing.T) {
	res := sharedKey(t, 128, 3)
	if _, err := Redistribute(res.Public, nil, nil, 0, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("empty shares: %v", err)
	}
	single := []Share{{Index: 1, D: big.NewInt(1)}}
	if _, err := Redistribute(res.Public, single, nil, 0, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("single share: %v", err)
	}
	if _, err := Redistribute(res.Public, []Share{{Index: 1}, {Index: 2}}, nil, 0, nil); err == nil {
		t.Error("nil exponents accepted")
	}
}
