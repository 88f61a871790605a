package sharedrsa

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
)

// expSigned is the math/big oracle for a partial: base^exp mod n, a
// negative exp applied through base's inverse, as partials computed
// before the power table.
func expSigned(base, exp, n *big.Int) (*big.Int, error) {
	if exp.Sign() >= 0 {
		return new(big.Int).Exp(base, exp, n), nil
	}
	inv := new(big.Int).ModInverse(base, n)
	if inv == nil {
		return nil, fmt.Errorf("base shares a factor with the modulus")
	}
	return inv.Exp(inv, new(big.Int).Neg(exp), n), nil
}

// checkRaise compares raise over shares with the oracle share by share:
// the same partial, or an error from both.
func checkRaise(t *testing.T, what string, h, n *big.Int, shares []Share) {
	t.Helper()
	got, err := raise(h, n, shares)
	var oracleErr bool
	for i, sh := range shares {
		want, werr := expSigned(h, sh.D, n)
		if werr != nil {
			oracleErr = true
			continue
		}
		if err == nil && got[i].V.Cmp(want) != 0 {
			t.Fatalf("%s: share %d (%d bits, sign %d): table %v, Exp %v", what, i, sh.D.BitLen(), sh.D.Sign(), got[i].V, want)
		}
		if err == nil && got[i].Index != sh.Index {
			t.Fatalf("%s: partial %d has index %d, want %d", what, i, got[i].Index, sh.Index)
		}
	}
	if (err != nil) != oracleErr {
		t.Fatalf("%s: raise error %v, oracle failed %v", what, err, oracleErr)
	}
}

// randomExp returns a number of exactly bits bits (0 for bits = 0),
// negated when neg.
func randomExp(rng *rand.Rand, bits int, neg bool) *big.Int {
	if bits == 0 {
		return new(big.Int)
	}
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	e.SetBit(e, bits-1, 1)
	if neg {
		e.Neg(e)
	}
	return e
}

// TestPartialsMatchExp: every share's partial equals the math/big
// oracle's, alone and in one table with shares of every other length,
// for shares of 0 and 1 bits, of w·K and w·K+1 bits (a full top digit,
// and one more digit than that), around |N| and up to |N|+128 bits,
// positive and negative, under 512-, 1024- and 2048-bit moduli, for the
// bases 0, 1, N−1 and a random one.
func TestPartialsMatchExp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{512, 1024, 2048} {
		n := oddModulus(rng, size)
		w := int(windowBits(size))
		full := w * ((size + w - 1) / w)
		lengths := []int{0, 1, 2, w - 1, w, w + 1, size - 1, size, size + 1, full, full + 1, size + 64, size + 128}
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		bases := map[string]*big.Int{"0": big.NewInt(0), "1": big.NewInt(1), "N-1": nm1, "random": new(big.Int).Rand(rng, n)}
		for bname, h := range bases {
			var all []Share
			for _, bits := range lengths {
				for _, neg := range []bool{false, true} {
					sh := Share{Index: len(all) + 1, D: randomExp(rng, bits, neg)}
					all = append(all, sh)
					checkRaise(t, fmt.Sprintf("N=%d h=%s alone, %d bits neg=%v", size, bname, bits, neg), h, n, []Share{sh})
				}
			}
			// Negative shares fail for h = 0 (no inverse); the positive
			// ones still share the table in a set without them.
			var pos []Share
			for _, sh := range all {
				if sh.D.Sign() >= 0 {
					pos = append(pos, sh)
				}
			}
			checkRaise(t, fmt.Sprintf("N=%d h=%s, all lengths", size, bname), h, n, all)
			checkRaise(t, fmt.Sprintf("N=%d h=%s, non-negative lengths", size, bname), h, n, pos)
		}
	}
}

// TestWindowBits pins the window at the key sizes the system signs
// under: the minimum of ⌈bits/w⌉ + 2·(2^w − 1).
func TestWindowBits(t *testing.T) {
	for bits, want := range map[int]uint{0: 1, 1: 1, 512: 4, 580: 4, 1024: 5, 2048: 6} {
		if got := windowBits(bits); got != want {
			t.Errorf("windowBits(%d) = %d, want %d", bits, got, want)
		}
	}
}

// FuzzPartials diffs raise against the math/big oracle on an arbitrary
// odd modulus, base and three shares of either sign.
func FuzzPartials(f *testing.F) {
	f.Add([]byte{0x02}, []byte{0x03}, []byte{0x05}, []byte{}, []byte{0x01}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, []byte{0x7f, 0x10}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x03}, uint8(2))
	f.Add(make([]byte, 70), append([]byte{0x01}, make([]byte, 64)...), make([]byte, 80), []byte{0x01}, append([]byte{0x80}, make([]byte, 79)...), uint8(7))
	f.Fuzz(func(t *testing.T, hb, nb, e1, e2, e3 []byte, neg uint8) {
		if len(hb) > 300 || len(nb) > 300 || len(e1) > 320 || len(e2) > 320 || len(e3) > 320 {
			return
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		if n.BitLen() < 2 {
			return
		}
		h := new(big.Int).SetBytes(hb)
		h.Mod(h, n)
		var shares []Share
		for i, eb := range [][]byte{e1, e2, e3} {
			d := new(big.Int).SetBytes(eb)
			if neg&(1<<i) != 0 {
				d.Neg(d)
			}
			shares = append(shares, Share{Index: i + 1, D: d})
		}
		checkRaise(t, fmt.Sprintf("h=%v n=%v", h, n), h, n, shares)
	})
}
