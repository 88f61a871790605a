package sharedrsa

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sequentialSign is SignJointly as one loop: each share's partial from
// PartialSign, a power table of its own, in share order, then Combine.
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

// fixedCases are the sharings of the golden joint signatures: three
// shares summing to d, and four summing to d − 2, which Combine corrects
// at j = 2.
var fixedCases = []struct{ parties, short int }{{3, 0}, {4, 2}}

// fixedShares splits the fixture key's d into parties shares of up to
// |N|+128 bits, every second one negative, the last balancing them to
// d − short: the widths and signs Redistribute deals, from a fixed seed.
func fixedShares(d *big.Int, bits, parties, short int) []Share {
	rng := rand.New(rand.NewSource(int64(bits + parties)))
	rest := new(big.Int).Sub(d, big.NewInt(int64(short)))
	shares := make([]Share, parties)
	for i := range parties - 1 {
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits+128)))
		if i%2 == 1 {
			e.Neg(e)
		}
		rest.Sub(rest, e)
		shares[i] = Share{Index: i + 1, D: e}
	}
	shares[parties-1] = Share{Index: parties, D: rest}
	return shares
}

// TestSignJointlyBitIdentical: a joint signature — S and the correction
// j — is the one Combine gives over per-share PartialSign, for dealer
// keys of n = 2…8 and for Boneh–Franklin keys, whose remainder j is not
// always 0, with more workers than cores allowed; and for fixed shares
// of the 512-, 1024- and 2048-bit fixture keys it is the signature
// recorded in testdata/joint_signatures.txt from math/big's
// exponentiations, before the power table.
func TestSignJointlyBitIdentical(t *testing.T) {
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

	raw, err := os.ReadFile("testdata/joint_signatures.txt")
	if err != nil {
		t.Fatal(err)
	}
	fixtures := crtKeys(t)
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var bits, parties, j int
		var msg, sh string
		if _, err := fmt.Sscanf(line, "%d %d %q %s %d", &bits, &parties, &msg, &sh, &j); err != nil {
			t.Fatalf("joint_signatures.txt: %q: %v", line, err)
		}
		short := -1
		for _, c := range fixedCases {
			if c.parties == parties {
				short = c.short
			}
		}
		fx, ok := fixtures[bits]
		if !ok || short < 0 {
			t.Fatalf("joint_signatures.txt: %q: no fixture key or case", line)
		}
		want, _ := new(big.Int).SetString(sh, 16)
		got, err := SignJointly([]byte(msg), fx.key.pub, fixedShares(fx.d, bits, parties, short))
		if err != nil {
			t.Fatalf("%d bits, %d shares, %q: %v", bits, parties, msg, err)
		}
		if got.S.Cmp(want) != 0 || got.Correction != j {
			t.Errorf("%d bits, %d shares, %q: (S, j=%d) differs from the recorded (S', j=%d), S = S' is %v",
				bits, parties, msg, got.Correction, j, got.S.Cmp(want) == 0)
		}
		lines++
	}
	if lines != 3*len(fixedCases)*2 {
		t.Errorf("joint_signatures.txt has %d signatures, want %d", lines, 3*len(fixedCases)*2)
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

// BenchmarkSignJointly times one n-of-n joint signature under a dealer
// key of 512, 1024 and 2048 bits (ROADMAP item 2's sizes), the coalition
// AA's shape at three and four domains. At -cpu 1 it reads the work: one
// power table and n evaluations; at -cpu 2, the wall time with the
// evaluations on two goroutines.
func BenchmarkSignJointly(b *testing.B) {
	msg := []byte("threshold attribute certificate payload")
	for _, bits := range []int{512, 1024, 2048} {
		for _, n := range []int{3, 4} {
			res, err := DealerSplit(bits, n, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%d/%d", bits, n), func(b *testing.B) {
				for range b.N {
					if _, err := SignJointly(msg, res.Public, res.Shares); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
