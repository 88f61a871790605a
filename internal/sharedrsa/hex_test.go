package sharedrsa

import (
	"math/big"
	"strings"
	"testing"
)

// checkParseHex compares ParseHex with SetString(s, 16): the same
// accept/reject answer and, on accept, the same value — into a fresh
// big.Int and into one whose limbs are reused.
func checkParseHex(t *testing.T, s string) {
	t.Helper()
	want, wantOK := new(big.Int).SetString(s, 16)
	reused := new(big.Int).Lsh(big.NewInt(-7), 3000)
	for _, z := range []*big.Int{new(big.Int), reused} {
		got, ok := ParseHex(z, s)
		if ok != wantOK {
			t.Fatalf("ParseHex(%.40q) ok = %v, SetString ok = %v", s, ok, wantOK)
		}
		if !ok {
			if got != nil {
				t.Fatalf("ParseHex(%.40q) failed but returned %v", s, got)
			}
			continue
		}
		if got != z || got.Cmp(want) != 0 {
			t.Fatalf("ParseHex(%.40q) = %v, SetString = %v", s, got, want)
		}
	}
}

func TestParseHexMatchesSetString(t *testing.T) {
	long := strings.Repeat("9aF", 1365) + "7" // 4 096 digits
	for _, s := range []string{
		"", "+", "-", "-0", "+0", "0", "00", "0x1f", "0X1F", "1_0", "_1", " 1", "1 ",
		"+-1", "--1", "g", "1g", "fF", "DEADbeef", "-deadBEEF", "0000000000000000000001",
		"ffffffffffffffff", "10000000000000000", "-10000000000000000",
		long, "-" + long, strings.Repeat("0", 4096), strings.Repeat("0", 4095) + "1",
		long[:4095] + "x",
	} {
		checkParseHex(t, s)
	}
}

// TestParseHexReusesLimbs: a big.Int whose limbs are large enough (a
// decider's pooled signature) parses without allocating.
func TestParseHexReusesLimbs(t *testing.T) {
	sig := new(big.Int).Lsh(big.NewInt(1), 511).Text(16)
	z := new(big.Int)
	if _, ok := ParseHex(z, sig); !ok {
		t.Fatal("parse failed")
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseHex(z, sig) }); allocs != 0 {
		t.Errorf("ParseHex into reused limbs allocates %.0f/op, want 0", allocs)
	}
}

func FuzzParseHex(f *testing.F) {
	for _, s := range []string{"", "+", "-0", "0x1f", "1_0", "ABCdef", "00000001", "-ffffffffffffffff1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParseHex(t, s) })
}
