package sharedrsa

import (
	"math/big"
	"strings"
	"testing"
)

// TestCollusionPrivacyThreshold is experiment E8: colluding proper subsets
// of domains pool their complete secret views and attempt to (a) assemble
// the private exponent and (b) factor N; both must fail for every proper
// subset, and both must succeed for the full coalition — the paper's
// "(n+1)/2 colluding domains can determine the private key" concern
// resolved operationally: with additive n-of-n shares, recovery needs all
// n views.
func TestCollusionPrivacyThreshold(t *testing.T) {
	res := sharedKey(t, 128, 5)
	msg := []byte("collusion probe")
	h := HashMessage(msg, res.Public)

	// The full coalition (all 5 views) recovers a working exponent:
	// d* = Σ dᵢ + k for some k in [0, n].
	if !coalitionCanSign(res, h, 5) {
		t.Fatal("full coalition failed to assemble the exponent")
	}
	for size := 1; size < 5; size++ {
		if coalitionCanSign(res, h, size) {
			t.Errorf("coalition of %d assembled a working exponent", size)
		}
		if coalitionCanFactor(res, size) {
			t.Errorf("coalition of %d factored N", size)
		}
	}
	if !coalitionCanFactor(res, 5) {
		t.Error("full coalition failed to reconstruct the factors")
	}
}

// coalitionCanSign pools the first `size` parties' d-shares and tests
// whether Σ dᵢ + j yields a valid signing exponent for any j in [0, n].
func coalitionCanSign(res *Result, h *big.Int, size int) bool {
	d := new(big.Int)
	for _, v := range res.Views[:size] {
		d.Add(d, v.DShare)
	}
	e := res.Public.E
	n := res.Public.N
	for j := 0; j <= len(res.Views); j++ {
		s, err := expSigned(h, new(big.Int).Add(d, big.NewInt(int64(j))), n)
		if err != nil {
			return false
		}
		if new(big.Int).Exp(s, e, n).Cmp(h) == 0 {
			return true
		}
	}
	return false
}

// coalitionCanFactor pools p-shares: only the full sum is the prime p.
func coalitionCanFactor(res *Result, size int) bool {
	p := new(big.Int)
	for _, v := range res.Views[:size] {
		p.Add(p, v.PShare)
	}
	if p.Cmp(big.NewInt(1)) <= 0 || p.Cmp(res.Public.N) >= 0 {
		return false
	}
	return new(big.Int).Mod(res.Public.N, p).Sign() == 0
}

// TestTranscriptDoesNotLeakShares: the protocol observations recorded for
// other parties never contain a party's raw prime share value.
func TestTranscriptDoesNotLeakShares(t *testing.T) {
	res := sharedKey(t, 128, 3)
	for _, v := range res.Views {
		needle := v.PShare.String()
		for other := 1; other <= 3; other++ {
			if other == v.Index {
				continue
			}
			for _, obs := range res.Transcript.View(other) {
				if len(needle) > 6 && strings.Contains(obs, needle) {
					t.Errorf("party %d's p-share appears in party %d's view", v.Index, other)
				}
			}
		}
	}
}
