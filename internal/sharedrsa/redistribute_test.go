package sharedrsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// change is one membership step of a redistribution sequence: the
// 0-based position of the party that leaves, or a join when leave < 0.
type change struct{ leave int }

// apply runs one change over shares with a seeded source.
func (c change) apply(pk PublicKey, shares []Share, rng *rand.Rand) ([]Share, error) {
	if c.leave < 0 {
		return Redistribute(pk, shares, nil, 1, rng)
	}
	leaving := make([]bool, len(shares))
	leaving[c.leave] = true
	return Redistribute(pk, shares, leaving, 0, rng)
}

// randomChange draws a join or a leave that keeps between 2 and 6
// parties.
func randomChange(n int, rng *rand.Rand) change {
	if n <= 2 || n < 6 && rng.Intn(2) == 0 {
		return change{leave: -1}
	}
	return change{leave: rng.Intn(n)}
}

// dealerKeyFor is a seeded 128-bit dealer split among n parties.
func dealerKeyFor(t testing.TB, n int, seed int64) (PublicKey, []Share) {
	t.Helper()
	res, err := DealerSplit(128, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res.Public, res.Shares
}

// combines reports whether the given shares' partials combine into a
// signature that verifies under pk, with the widest correction search.
func combines(t *testing.T, pk PublicKey, msg []byte, shares []Share) bool {
	t.Helper()
	partials := make([]PartialSignature, len(shares))
	for i, sh := range shares {
		p, err := PartialSign(msg, pk, sh)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = p
	}
	_, err := Combine(msg, pk, partials, 8)
	if err != nil && !errors.Is(err, ErrBadSignature) {
		t.Fatal(err)
	}
	return err == nil
}

// TestRedistributeInvalidatesMixedEpochs is the intrusion-tolerance
// property for every kind of change: shares from before a change never
// combine with shares from after it, and after a leave the departed
// party's old share combines with no set of new shares.
func TestRedistributeInvalidatesMixedEpochs(t *testing.T) {
	res := sharedKey(t, 128, 3)
	msg := []byte("mixed epochs")
	for _, c := range []struct {
		name    string
		leaving []bool
		joining int
	}{
		{"refresh", nil, 0},
		{"join", nil, 1},
		{"leave", []bool{false, false, true}, 0},
	} {
		fresh, err := Redistribute(res.Public, res.Shares, c.leaving, c.joining, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if !combines(t, res.Public, msg, fresh) {
			t.Fatalf("%s: the new shares do not sign", c.name)
		}
		// Every old share with every non-empty set of new shares.
		for old := range res.Shares {
			for mask := 1; mask < 1<<len(fresh); mask++ {
				mixed := []Share{{Index: 100, D: res.Shares[old].D}}
				for j := range fresh {
					if mask&(1<<j) != 0 {
						mixed = append(mixed, fresh[j])
					}
				}
				if combines(t, res.Public, msg, mixed) {
					t.Errorf("%s: old share %d with new shares %b produced a signature", c.name, old+1, mask)
				}
			}
		}
	}
}

// TestRedistributeSequencesKeepTheKey: after 100 seeded sequences of
// joins and leaves, the shares still sign under the unchanged public key
// — for dealer keys and for Boneh–Franklin keys, whose remainder the
// first change folds into a share.
func TestRedistributeSequencesKeepTheKey(t *testing.T) {
	bf := sharedKey(t, 128, 3)
	for seq := range 100 {
		rng := rand.New(rand.NewSource(int64(seq)))
		keys := []struct {
			name   string
			pk     PublicKey
			shares []Share
		}{{"boneh-franklin", bf.Public, bf.Shares}}
		pk, shares := dealerKeyFor(t, 2+seq%3, int64(seq))
		keys = append(keys, struct {
			name   string
			pk     PublicKey
			shares []Share
		}{"dealer", pk, shares})
		for _, k := range keys {
			shares := k.shares
			var steps []change
			for range 1 + rng.Intn(5) {
				c := randomChange(len(shares), rng)
				steps = append(steps, c)
				var err error
				if shares, err = c.apply(k.pk, shares, rng); err != nil {
					t.Fatalf("%s sequence %d, steps %v: %v", k.name, seq, steps, err)
				}
			}
			msg := []byte(fmt.Sprintf("sequence %d", seq))
			sig, err := SignJointly(msg, k.pk, shares)
			if err != nil {
				t.Fatalf("%s sequence %d, steps %v: %v", k.name, seq, steps, err)
			}
			if err := Verify(msg, k.pk, sig); err != nil || sig.Correction != 0 {
				t.Fatalf("%s sequence %d: verify %v, correction %d", k.name, seq, err, sig.Correction)
			}
		}
	}
}

// TestRedistributeSharesStayBounded: the masks' width is fixed by |N|,
// so after 200 changes no share exceeds |N| + maskSigma + 8 bits.
func TestRedistributeSharesStayBounded(t *testing.T) {
	bf := sharedKey(t, 128, 3)
	pk, dealt := dealerKeyFor(t, 3, 1)
	for _, k := range []struct {
		name   string
		pk     PublicKey
		shares []Share
	}{{"boneh-franklin", bf.Public, bf.Shares}, {"dealer", pk, dealt}} {
		rng := rand.New(rand.NewSource(200))
		shares, widest := k.shares, 0
		for i := range 200 {
			var err error
			if shares, err = randomChange(len(shares), rng).apply(k.pk, shares, rng); err != nil {
				t.Fatalf("%s change %d: %v", k.name, i, err)
			}
			for _, s := range shares {
				widest = max(widest, s.D.BitLen())
			}
		}
		if bound := k.pk.N.BitLen() + maskSigma + 8; widest > bound {
			t.Errorf("%s: a share reached %d bits, bound %d", k.name, widest, bound)
		}
		if _, err := SignJointly([]byte("after 200 changes"), k.pk, shares); err != nil {
			t.Errorf("%s: %v", k.name, err)
		}
	}
}

func TestRedistributeIndexesStayersThenNewcomers(t *testing.T) {
	pk, shares := dealerKeyFor(t, 4, 3)
	out, err := Redistribute(pk, shares, []bool{false, true, false, false}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("%d shares, want 3 stayers + 2 newcomers", len(out))
	}
	for i, s := range out {
		if s.Index != i+1 {
			t.Errorf("share %d has index %d", i, s.Index)
		}
	}
	// The input is not modified.
	if _, err := SignJointly([]byte("old"), pk, shares); err != nil {
		t.Errorf("the old sharing changed: %v", err)
	}
}

func TestRedistributeValidation(t *testing.T) {
	pk, shares := dealerKeyFor(t, 2, 4)
	if _, err := Redistribute(pk, shares, []bool{true, false}, 0, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("leave down to one party: %v", err)
	}
	if _, err := Redistribute(pk, shares, []bool{true}, 0, nil); err == nil {
		t.Error("mismatched leaving flags accepted")
	}
	if _, err := Redistribute(pk, []Share{{Index: 1}, {Index: 2}}, nil, 0, nil); err == nil {
		t.Error("nil exponents accepted")
	}
	if _, err := Redistribute(PublicKey{N: big.NewInt(4), E: big.NewInt(3)}, shares, nil, 0, nil); err == nil {
		t.Error("an even modulus accepted")
	}
	// Shares of another key fail the trial signature.
	other, otherShares := dealerKeyFor(t, 2, 5)
	if _, err := Redistribute(pk, otherShares, nil, 1, nil); !errors.Is(err, ErrBadSignature) {
		t.Errorf("shares of %v under %v: %v", other, pk, err)
	}
}

// BenchmarkRedistribute times one cooperative membership change of a
// 512-bit dealer key — the deal and its trial joint signature — at three
// and four parties.
func BenchmarkRedistribute(b *testing.B) {
	for _, n := range []int{3, 4} {
		res, err := DealerSplit(512, n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			b.Fatal(err)
		}
		leaving := make([]bool, n)
		leaving[n-1] = true
		b.Run(fmt.Sprintf("join/%d", n), func(b *testing.B) {
			for range b.N {
				if _, err := Redistribute(res.Public, res.Shares, nil, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("leave/%d", n), func(b *testing.B) {
			for range b.N {
				if _, err := Redistribute(res.Public, res.Shares, leaving, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
