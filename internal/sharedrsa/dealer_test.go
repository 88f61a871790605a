package sharedrsa

import (
	"io"
	"math/big"
	"math/rand"
	"testing"
)

// TestGenerateKey: from crypto/rand (two primes drawn at once) and from a
// seeded source (one after the other), the key has exactly the requested
// size, e = 65537 and two distinct primes, and its CRT form signs what
// Verify accepts.
func TestGenerateKey(t *testing.T) {
	for _, src := range []struct {
		name string
		rng  io.Reader
	}{{"crypto", nil}, {"seeded", rand.New(rand.NewSource(7))}} {
		for _, bits := range []int{255, 512} {
			key, err := GenerateKey(bits, src.rng)
			if err != nil {
				t.Fatalf("%s %d: %v", src.name, bits, err)
			}
			p, q := key.Primes[0], key.Primes[1]
			if key.N.BitLen() != bits || key.E != 65537 || p.Cmp(q) == 0 ||
				new(big.Int).Mul(p, q).Cmp(key.N) != 0 || !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
				t.Fatalf("%s %d: N %d bits, e %d, p %v, q %v", src.name, bits, key.N.BitLen(), key.E, p, q)
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
