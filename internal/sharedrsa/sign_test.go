package sharedrsa

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// sequentialSign is SignJointly as one loop: each partial in share
// order, then Combine.
func sequentialSign(msg []byte, pk PublicKey, shares []Share) (Signature, error) {
	partials := make([]PartialSignature, len(shares))
	for i, sh := range shares {
		p, err := PartialSign(msg, pk, sh)
		if err != nil {
			return Signature{}, err
		}
		partials[i] = p
	}
	return Combine(msg, pk, partials, len(shares))
}

// TestSignJointlyMatchesSequential: the concurrent partials combine to
// the very signature the sequential loop gives — S and the correction j —
// for dealer keys of n = 2…8 and for Boneh–Franklin keys, whose
// remainder j is not always 0, with more workers than cores allowed.
func TestSignJointlyMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	msg := []byte("threshold attribute certificate payload")
	type key struct {
		name   string
		pk     PublicKey
		shares []Share
	}
	var keys []key
	for n := 2; n <= 8; n++ {
		res, err := DealerSplit(512, n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key{fmt.Sprintf("dealer n=%d", n), res.Public, res.Shares})
	}
	for _, n := range []int{3, 5} {
		res := sharedKey(t, 128, n)
		keys = append(keys, key{fmt.Sprintf("shared n=%d", n), res.Public, res.Shares})
	}
	corrected := false
	for _, k := range keys {
		for m := 0; m < 8; m++ {
			msg := append(msg, byte(m))
			want, err := sequentialSign(msg, k.pk, k.shares)
			if err != nil {
				t.Fatalf("%s: sequential: %v", k.name, err)
			}
			got, err := SignJointly(msg, k.pk, k.shares)
			if err != nil {
				t.Fatalf("%s: SignJointly: %v", k.name, err)
			}
			if got.S.Cmp(want.S) != 0 || got.Correction != want.Correction {
				t.Fatalf("%s, message %d: SignJointly gave (S, j=%d), the sequential loop (S', j=%d), S = S' is %v",
					k.name, m, got.Correction, want.Correction, got.S.Cmp(want.S) == 0)
			}
			corrected = corrected || got.Correction > 0
		}
	}
	if !corrected {
		t.Error("no signature needed a correction j > 0; the comparison never covered one")
	}
}

// TestSignJointlyReportsLowestIndexError: with two bad shares, the error
// is the lower-indexed one's, however the workers interleave.
func TestSignJointlyReportsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	res, err := DealerSplit(512, 6, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	shares := append([]Share(nil), res.Shares...)
	shares[2] = Share{Index: shares[2].Index}
	shares[4] = Share{Index: shares[4].Index}
	want := fmt.Sprintf("sharedrsa: share %d has no exponent", shares[2].Index)
	for range 20 {
		if _, err := SignJointly([]byte("m"), res.Public, shares); err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	}
}

// BenchmarkSignJointly times one n-of-n joint signature under a 512-bit
// dealer key, the coalition AA's shape at three and four domains.
func BenchmarkSignJointly(b *testing.B) {
	msg := []byte("threshold attribute certificate payload")
	for _, n := range []int{3, 4} {
		res, err := DealerSplit(512, n, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for range b.N {
				if _, err := SignJointly(msg, res.Public, res.Shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
