package sharedrsa

import (
	"errors"
	"io"
	"math/big"
	"math/bits"
)

// The prime search. Every prime the package generates — the two of a
// conventional key (GenerateKey) and the BGW field of GenerateShared —
// is drawn by searchPrime: a random odd start, a sieved window of the
// odd numbers above it, one base-2 test per survivor and the full test
// on the one that passes. DESIGN.md, "The prime search", says why its
// primes are distributed as crypto/rand.Prime's.

const (
	// sieveWindow is the number of odd candidates start, start+2, …
	// sieved per random start: at 1024-bit primes, about one in 355 odd
	// numbers is prime, so a window holds none once in ~300 starts.
	sieveWindow = 2048
	// sieveBound bounds the odd primes the window is sieved by: 1 899
	// of them, and a survivor is prime about 8.6× as often as an odd
	// number is.
	sieveBound = 1 << 14
)

// sievePrimes16 are the odd primes below sieveBound (≈4 KB), built once.
var sievePrimes16 = func() []uint16 {
	var t []uint16
	for _, p := range sievePrimes(sieveBound) {
		t = append(t, uint16(p))
	}
	return t
}()

// searchPrime returns a random prime of exactly bits bits whose top two
// bits are set. Each start reads exactly ⌈bits/8⌉ bytes of rng, so a
// seeded source repeats the prime. The odd candidates start+2i,
// i < sieveWindow, are struck by every sieving prime that divides them
// and is not them; each survivor, in order, is tested by probablyPrime.
// A fresh start is drawn when the window is exhausted or a candidate
// outgrows bits bits.
func searchPrime(bits int, rng io.Reader) (*big.Int, error) {
	if bits < 2 {
		return nil, errors.New("sharedrsa: prime size must be at least 2 bits")
	}
	buf := make([]byte, (bits+7)/8)
	top := uint(bits % 8)
	if top == 0 {
		top = 8
	}
	var struck [sieveWindow]bool
	start := new(big.Int)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		buf[0] &= uint8(int(1<<top) - 1)
		if top >= 2 {
			buf[0] |= 3 << (top - 2)
		} else {
			buf[0] |= 1
			buf[1] |= 0x80
		}
		buf[len(buf)-1] |= 1
		start.SetBytes(buf)
		strike(&struck, start)
		c := new(big.Int)
		for i := range struck {
			if struck[i] {
				continue
			}
			c.Add(start, c.SetUint64(2*uint64(i)))
			if c.BitLen() != bits {
				break
			}
			if probablyPrime(c) {
				return c, nil
			}
		}
	}
}

// strike marks, for each sieving prime p, the i < sieveWindow with p
// dividing start+2i, unless start+2i is p itself. start is odd.
func strike(struck *[sieveWindow]bool, start *big.Int) {
	clear(struck[:])
	words := start.Bits()
	var small uint // start, when it may equal a sieving prime
	if start.BitLen() <= 16 {
		small = uint(start.Uint64())
	}
	for _, p16 := range sievePrimes16 {
		p := uint(p16)
		var rem uint
		for k := len(words) - 1; k >= 0; k-- {
			_, rem = bits.Div(rem, uint(words[k]), p)
		}
		// start+2i ≡ 0 (mod p) ⟺ i ≡ −start·2⁻¹, and 2⁻¹ ≡ (p+1)/2.
		i := (p - rem) * ((p + 1) / 2) % p
		if small+2*i == p {
			i += p
		}
		for ; i < sieveWindow; i += p {
			struck[i] = true
		}
	}
}

// probablyPrime is the acceptance step: a base-2 Fermat test, which
// strikes nearly every composite the sieve let through at the cost of
// one exponentiation, then ProbablyPrime(20), the check crypto/rand.Prime
// applies, for the candidate that passes it.
func probablyPrime(c *big.Int) bool {
	one, two := big.NewInt(1), big.NewInt(2)
	var nm1, x big.Int
	nm1.Sub(c, one)
	if x.Exp(two, &nm1, c).Cmp(one) != 0 {
		return false
	}
	return c.ProbablyPrime(20)
}
