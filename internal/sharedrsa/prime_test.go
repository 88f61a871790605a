package sharedrsa

import (
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// TestProbablyPrimeRefusesPseudoprimes: 341 and 561 fool a base-2
// Fermat test and 3215031751 a strong base-2 test as well; the
// acceptance step refuses all three, and accepts the primes around them.
func TestProbablyPrimeRefusesPseudoprimes(t *testing.T) {
	for _, n := range []int64{341, 561, 3215031751} {
		c := big.NewInt(n)
		nm1 := new(big.Int).Sub(c, big.NewInt(1))
		if new(big.Int).Exp(big.NewInt(2), nm1, c).Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%d is not a base-2 pseudoprime", n)
		}
		if probablyPrime(c) {
			t.Errorf("pseudoprime %d accepted", n)
		}
	}
	for _, n := range []int64{3, 337, 347, 557, 563, 3215031749, 3215031767} {
		if !probablyPrime(big.NewInt(n)) {
			t.Errorf("prime %d refused", n)
		}
	}
}

// checkPrime fails unless p is a prime of exactly bits bits whose top
// two bits are set.
func checkPrime(t *testing.T, p *big.Int, bits int) {
	t.Helper()
	if p.BitLen() != bits || p.Bit(bits-2) != 1 || !p.ProbablyPrime(20) {
		t.Fatalf("%d bits: %v (%d bits) is not a %d-bit prime with its top two bits set", bits, p, p.BitLen(), bits)
	}
}

// starts is a seeded source that runs dry after 64 starts of a bits-bit
// search: a search that strikes every candidate fails at once, with
// io.EOF, rather than drawing forever.
func starts(bits int, seed int64) io.Reader {
	return io.LimitReader(rand.New(rand.NewSource(seed)), int64(64*((bits+7)/8)))
}

// TestSearchPrimeSizes: over many seeds, at every size from the smallest
// GenerateKey asks for (8-bit primes, where each candidate is below the
// sieve bound and may be a sieving prime itself) through sizes that are
// no whole number of bytes or words, every prime the search returns is
// well formed.
func TestSearchPrimeSizes(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	for _, bits := range []int{2, 3, 8, 9, 13, 16, 17, 31, 64, 65, 127, 128, 255, 256} {
		for seed := int64(0); seed < seeds; seed++ {
			p, err := searchPrime(bits, starts(bits, seed))
			if err != nil {
				t.Fatalf("%d bits, seed %d: %v", bits, seed, err)
			}
			checkPrime(t, p, bits)
		}
	}
	if _, err := searchPrime(1, nil); err == nil {
		t.Error("a 1-bit prime was searched for")
	}
}

// TestSearchPrimeReachesEverySmallPrime: at 8 bits the search returns
// each of the eleven primes in [192, 256), among them 193, which only
// the start 193 reaches — so the sieve never strikes a candidate that is
// a sieving prime.
func TestSearchPrimeReachesEverySmallPrime(t *testing.T) {
	want := map[int64]bool{}
	for n := int64(192); n < 256; n++ {
		if big.NewInt(n).ProbablyPrime(20) {
			want[n] = true
		}
	}
	got := map[int64]bool{}
	for seed := int64(0); seed < 400; seed++ {
		p, err := searchPrime(8, starts(8, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got[p.Int64()] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("8-bit primes found %v, want %v", got, want)
	}
}
