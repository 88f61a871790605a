package sharedrsa

import (
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// TestGenerateKey: from crypto/rand (two primes drawn at once) and from a
// seeded source (one after the other), the key has exactly the requested
// size, e = 65537 and two distinct primes, and its CRT form signs what
// Verify accepts. An equal seeded source gives an equal key.
func TestGenerateKey(t *testing.T) {
	for _, src := range []struct {
		name string
		rng  func() io.Reader
	}{{"crypto", func() io.Reader { return nil }}, {"seeded", func() io.Reader { return rand.New(rand.NewSource(7)) }}} {
		for _, bits := range []int{16, 255, 512} {
			key, err := GenerateKey(bits, src.rng())
			if err != nil {
				t.Fatalf("%s %d: %v", src.name, bits, err)
			}
			p, q := key.Primes[0], key.Primes[1]
			if key.N.BitLen() != bits || key.E != 65537 || p.Cmp(q) == 0 ||
				new(big.Int).Mul(p, q).Cmp(key.N) != 0 || !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
				t.Fatalf("%s %d: N %d bits, e %d, p %v, q %v", src.name, bits, key.N.BitLen(), key.E, p, q)
			}
			if src.name == "seeded" {
				again, err := GenerateKey(bits, src.rng())
				if err != nil || again.N.Cmp(key.N) != 0 || again.D.Cmp(key.D) != 0 {
					t.Errorf("%s %d: keys differ under one seed (%v)", src.name, bits, err)
				}
			}
			pub := PublicKey{N: key.N, E: big.NewInt(int64(key.E))}
			crt, err := NewCRTKey(pub, key.Primes, key.Precomputed.Dp, key.Precomputed.Dq, key.Precomputed.Qinv)
			if err != nil {
				t.Fatalf("%s %d: %v", src.name, bits, err)
			}
			msg := []byte("generated key")
			sig, err := crt.Sign(msg)
			if err != nil {
				t.Fatalf("%s %d: sign: %v", src.name, bits, err)
			}
			if err := Verify(msg, pub, sig); err != nil {
				t.Errorf("%s %d: verify: %v", src.name, bits, err)
			}
		}
	}
	if _, err := GenerateKey(8, nil); err == nil {
		t.Error("an 8-bit key was generated")
	}
}

// TestDealerSplitSeedReproducible: two equal seeded sources give equal
// dealer splits.
func TestDealerSplitSeedReproducible(t *testing.T) {
	split := func() *DealerResult {
		res, err := DealerSplit(512, 3, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := split(), split(); !reflect.DeepEqual(a, b) {
		t.Error("dealer splits differ under one seed")
	}
}

// BenchmarkGenerateKey times a conventional key from crypto/rand, the
// two primes drawn at once, at the sizes of ROADMAP item 2's key-size
// axis.
func BenchmarkGenerateKey(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			for range b.N {
				if _, err := GenerateKey(bits, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
