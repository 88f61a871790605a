package shamir

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func BenchmarkSplit(b *testing.B) {
	secret, err := rand.Int(rand.Reader, testPrime)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Split(secret, 4, 7, testPrime, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct(b *testing.B) {
	secret, err := rand.Int(rand.Reader, testPrime)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := Split(secret, 4, 7, testPrime, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Interpolate(shares[:4], big.NewInt(0), testPrime)
		if err != nil || got.Cmp(secret) != 0 {
			b.Fatal("reconstruction failed")
		}
	}
}

func BenchmarkBGWMultiply(b *testing.B) {
	p := big.NewInt(1_000_003)
	q := big.NewInt(1_000_033)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := Split(p, 2, 3, testPrime, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sq, err := Split(q, 2, 3, testPrime, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		prod, err := MulPointwise(sp, sq, testPrime)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Interpolate(prod, big.NewInt(0), testPrime); err != nil {
			b.Fatal(err)
		}
	}
}
