package pki

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"jointadmin/internal/sharedrsa"
)

func rsaKey(tb testing.TB, bits int) *rsa.PrivateKey {
	tb.Helper()
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		tb.Fatal(err)
	}
	return key
}

func TestNewKeyPairRefusesOtherThanTwoPrimes(t *testing.T) {
	key := rsaKey(t, 512)
	three := *key
	three.Primes = append(key.Primes[:2:2], big.NewInt(3))
	if _, err := NewKeyPair(&three); err == nil {
		t.Error("three-prime key accepted")
	}
	noCRT := *key
	noCRT.Precomputed = rsa.PrecomputedValues{}
	if _, err := NewKeyPair(&noCRT); err == nil {
		t.Error("key without CRT values accepted")
	}
	if _, err := NewKeyPair(key); err != nil {
		t.Fatalf("two-prime key refused: %v", err)
	}
}

// TestKeyPairSignFaultReleasesNothing: a key whose dP has one bit flipped
// signs nothing, through KeyPair.Sign and through the certificate path.
func TestKeyPairSignFaultReleasesNothing(t *testing.T) {
	key := rsaKey(t, 512)
	key.Precomputed.Dp.SetBit(key.Precomputed.Dp, 0, key.Precomputed.Dp.Bit(0)^1)
	kp, err := NewKeyPair(key)
	if err != nil {
		t.Fatal(err)
	}
	if sig, err := kp.Sign([]byte("m")); !errors.Is(err, sharedrsa.ErrSignFault) || sig.S != nil {
		t.Fatalf("Sign = (%v, %v), want no signature and ErrSignFault", sig.S, err)
	}
	_, user := keys(t)
	if sc, err := Issue(identityBody(kp, user), kp.AsSigner()); !errors.Is(err, sharedrsa.ErrSignFault) || sc.SigS != "" {
		t.Fatalf("Issue = (%q, %v), want no certificate and ErrSignFault", sc.SigS, err)
	}
}

// TestKeyPairSignAllocs pins the allocations of one 512-bit signature.
func TestKeyPairSignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	ca, _ := keys(t)
	msg := []byte(`{"user":"alice","at":7,"op":"read","object":"O"}`)
	if _, err := ca.Sign(msg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { _, _ = ca.Sign(msg) })
	if allocs > signAllocBudget {
		t.Errorf("KeyPair.Sign at 512 bits allocates %.0f/op, want at most %d", allocs, signAllocBudget)
	}
}

// signAllocBudget is the 45 measured — all but a handful inside math/big's
// two half-size Exp calls; the rest are the hash, the signer's scratch and
// the signature — plus one for the rare h mod p shorter than p, which Exp
// pads with a copy.
const signAllocBudget = 46

var signSink sharedrsa.Signature

func BenchmarkSign(b *testing.B) {
	msg := []byte(`{"user":"alice","at":7,"op":"read","object":"O"}`)
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			kp, err := NewKeyPair(rsaKey(b, bits))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if signSink, err = kp.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
