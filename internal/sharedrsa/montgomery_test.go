package sharedrsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// oddModulus returns a deterministic odd modulus of exactly the given bit
// length.
func oddModulus(rng *rand.Rand, bitLen int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitLen)))
	n.SetBit(n, bitLen-1, 1)
	return n.SetBit(n, 0, 1)
}

// kernelModuli covers the sizes the system uses and the word-boundary
// shapes: 520 bits spills one bit-word past 512, a one-word modulus, and
// a modulus whose top word is 1.
func kernelModuli() map[string]*big.Int {
	rng := rand.New(rand.NewSource(1))
	topWordOne := oddModulus(rng, 200)
	topWordOne.SetBit(topWordOne, 512, 1)
	return map[string]*big.Int{
		"512":        oddModulus(rng, 512),
		"520":        oddModulus(rng, 520),
		"1024":       oddModulus(rng, 1024),
		"2048":       oddModulus(rng, 2048),
		"one-word":   new(big.Int).SetUint64(0xffffffffffffffc5),
		"three":      big.NewInt(3),
		"top-word-1": topWordOne,
	}
}

func TestExpPublicMatchesExp(t *testing.T) {
	exps := []*big.Int{
		big.NewInt(3),
		big.NewInt(65537),
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)),
		// e = 1 and an even e leave the domain with a REDC of their own.
		big.NewInt(1),
		big.NewInt(65536),
	}
	rng := rand.New(rand.NewSource(2))
	for name, n := range kernelModuli() {
		s := new(big.Int).Rand(rng, n)
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		bases := map[string]*big.Int{
			"0":    big.NewInt(0),
			"1":    big.NewInt(1),
			"N-1":  nm1,
			"N":    new(big.Int).Set(n),
			"N+1":  new(big.Int).Add(n, big.NewInt(1)),
			"2N+3": new(big.Int).Add(new(big.Int).Lsh(n, 1), big.NewInt(3)),
			"-1":   big.NewInt(-1),
			"S":    s,
			"-S":   new(big.Int).Neg(s),
		}
		for bname, x := range bases {
			for _, e := range exps {
				want := new(big.Int).Exp(x, e, n)
				got := expPublic(new(big.Int), x, e, n)
				if got.Cmp(want) != 0 {
					t.Errorf("n=%s x=%s e=%v: kernel %v, Exp %v", name, bname, e, got, want)
				}
			}
		}
	}
}

// TestExpPublicR2Entry: entering the domain by REDC(x·R²) gives what the
// shift-and-divide entry gives, for every base in [0, n), with a scratch
// of exactly 6·len(n) words that holds stale words from an earlier call.
func TestExpPublicR2Entry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, n := range kernelModuli() {
		rr := montR2(n)
		k := len(n.Bits())
		buf := make([]big.Word, expPublicWords(k, k, true))
		for i := range buf {
			buf[i] = ^big.Word(0)
		}
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		for _, x := range []*big.Int{big.NewInt(0), big.NewInt(1), nm1, new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)} {
			for _, e := range []*big.Int{big.NewInt(1), big.NewInt(3), big.NewInt(65536), big.NewInt(65537)} {
				want := new(big.Int).Exp(x, e, n)
				if got := expPublicIn(new(big.Int), x, e, n, rr, buf); got.Cmp(want) != 0 {
					t.Errorf("n=%s x=%v e=%v: R² entry %v, Exp %v", name, x, e, got, want)
				}
			}
		}
	}
}

func TestExpPublicAliasedOperands(t *testing.T) {
	n := kernelModuli()["512"]
	x := new(big.Int).Sub(n, big.NewInt(12345))
	e := big.NewInt(65537)
	want := new(big.Int).Exp(x, e, n)
	if got := expPublic(x, x, e, n); got.Cmp(want) != 0 {
		t.Fatalf("z == x: got %v, want %v", got, want)
	}
}

func FuzzExpPublic(f *testing.F) {
	f.Add([]byte{0x02}, []byte{0x03}, []byte{0x01, 0x00, 0x01}, false)
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, []byte{0x03}, true)
	f.Add(make([]byte, 70), append([]byte{0x01}, make([]byte, 64)...), []byte{0x01, 0x00, 0x01}, false)
	f.Fuzz(func(t *testing.T, xb, nb, eb []byte, neg bool) {
		if len(xb) > 600 || len(nb) > 300 || len(eb) > 16 {
			return
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		e := new(big.Int).SetBytes(eb)
		if n.BitLen() < 2 || e.Sign() == 0 {
			return
		}
		x := new(big.Int).SetBytes(xb)
		if neg {
			x.Neg(x)
		}
		want := new(big.Int).Exp(x, e, n)
		if got := expPublic(new(big.Int), x, e, n); got.Cmp(want) != 0 {
			t.Fatalf("x=%v e=%v n=%v: kernel %v, Exp %v", x, e, n, got, want)
		}
	})
}

// TestCombinePicksSameCorrection checks Combine's trial correction against
// the search done with math/big: the same j, hence the same signature.
func TestCombinePicksSameCorrection(t *testing.T) {
	res := sharedKey(t, 128, 3)
	pk := res.Public
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("certificate body %d", i))
		partials := make([]PartialSignature, len(res.Shares))
		s := big.NewInt(1)
		for j, sh := range res.Shares {
			p, err := PartialSign(msg, pk, sh)
			if err != nil {
				t.Fatal(err)
			}
			partials[j] = p
			s.Mul(s, p.V).Mod(s, pk.N)
		}
		h := hashToModulus(msg, pk.N)
		want := -1
		for j := 0; j <= len(partials); j++ {
			if new(big.Int).Exp(s, pk.E, pk.N).Cmp(h) == 0 {
				want = j
				break
			}
			s.Mul(s, h).Mod(s, pk.N)
		}
		sig, err := Combine(msg, pk, partials, len(partials))
		if want < 0 {
			if !errors.Is(err, ErrBadSignature) {
				t.Fatalf("msg %d: math/big finds no correction, Combine: %v", i, err)
			}
			continue
		}
		if err != nil || sig.Correction != want || sig.S.Cmp(s) != 0 {
			t.Fatalf("msg %d: Combine j=%d err=%v, math/big j=%d", i, sig.Correction, err, want)
		}
	}
}

// TestBatchVerifyMatchesExpReference decides random screening batches
// with a math/big reference of BatchVerify's rules and compares the
// BatchResult and the attributed indices.
func TestBatchVerifyMatchesExpReference(t *testing.T) {
	pk, sign := batchKey(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(6)
		items := goodBatch(k, sign)
		for i := range items {
			switch rng.Intn(5) {
			case 0:
				items[i].Sig.S = new(big.Int).Add(items[i].Sig.S, big.NewInt(1))
			case 1:
				items[i].Sig.S = new(big.Int).Add(items[i].Sig.S, pk.N) // out of range
			}
		}
		if rng.Intn(4) == 0 {
			items[k-1] = BatchItem{Msg: items[0].Msg, Sig: items[k-1].Sig} // duplicate message
		}

		var wantBad []int
		sProd, hProd := big.NewInt(1), big.NewInt(1)
		inRange, distinct := true, true
		seen := map[string]bool{}
		for i, it := range items {
			h := hashToModulus(it.Msg, pk.N)
			if new(big.Int).Exp(it.Sig.S, pk.E, pk.N).Cmp(h) != 0 {
				wantBad = append(wantBad, i)
			}
			inRange = inRange && it.Sig.S.Cmp(pk.N) < 0
			distinct = distinct && !seen[string(it.Msg)]
			seen[string(it.Msg)] = true
			sProd.Mul(sProd, it.Sig.S).Mod(sProd, pk.N)
			hProd.Mul(hProd, h).Mod(hProd, pk.N)
		}
		var want BatchResult
		switch {
		case !inRange || !distinct:
			want = BatchResult{Fallback: true}
		case new(big.Int).Exp(sProd, pk.E, pk.N).Cmp(hProd) == 0:
			want = BatchResult{Batched: true}
			wantBad = nil
		default:
			want = BatchResult{Batched: true, Fallback: true}
		}

		got, err := BatchVerify(items, pk, BatchOptions{})
		if got != want {
			t.Fatalf("trial %d: BatchResult %+v, reference %+v", trial, got, want)
		}
		if len(wantBad) == 0 {
			if err != nil {
				t.Fatalf("trial %d: reference accepts, BatchVerify: %v", trial, err)
			}
			continue
		}
		if bad := badIndices(t, err); !eqInts(bad, wantBad) {
			t.Fatalf("trial %d: attributed %v, reference %v", trial, bad, wantBad)
		}
	}
}

// TestVerifyRejectsUnusableKeys pins the fail-closed answer for keys no
// signature can verify under: never a panic.
func TestVerifyRejectsUnusableKeys(t *testing.T) {
	pk, sign := batchKey(t)
	msg := []byte("m")
	sig := sign(msg)
	for name, bad := range map[string]PublicKey{
		"nil N":           {N: nil, E: pk.E},
		"nil E":           {N: pk.N, E: nil},
		"zero N":          {N: big.NewInt(0), E: pk.E},
		"one N":           {N: big.NewInt(1), E: pk.E},
		"negative N":      {N: new(big.Int).Neg(pk.N), E: pk.E},
		"even N":          {N: new(big.Int).Add(pk.N, big.NewInt(1)), E: pk.E},
		"zero E":          {N: pk.N, E: big.NewInt(0)},
		"negative E":      {N: pk.N, E: big.NewInt(-3)},
		"negative wide E": {N: pk.N, E: new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 70))},
	} {
		if err := Verify(msg, bad, sig); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: Verify = %v, want ErrBadSignature", name, err)
		}
		if _, err := Combine(msg, bad, []PartialSignature{{Index: 1, V: sig.S}}, 1); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: Combine = %v, want ErrBadSignature", name, err)
		}
		items := goodBatch(3, sign)
		if _, err := BatchVerify(items, bad, BatchOptions{}); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: BatchVerify = %v, want ErrBadSignature", name, err)
		}
	}
	if err := Verify(msg, pk, sig); err != nil {
		t.Fatalf("good key: %v", err)
	}
}

// verifyFixture is a dealer key of the given size with one signed message.
func verifyFixture(tb testing.TB, bits int) (PublicKey, []byte, Signature) {
	tb.Helper()
	res, err := DealerSplit(bits, 2, nil)
	if err != nil {
		tb.Fatalf("DealerSplit(%d): %v", bits, err)
	}
	msg := []byte(`{"t":"identity","body":{"issuer":"CA1","subject":"alice"}}`)
	h := hashToModulus(msg, res.Public.N)
	return res.Public, msg, Signature{S: h.Exp(h, res.PrivateD, res.Public.N)}
}

func TestVerifyAllocs(t *testing.T) {
	pk, msg, sig := verifyFixture(t, 512)
	if err := Verify(msg, pk, sig); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Verify(msg, pk, sig) }); allocs > 6 {
		t.Errorf("Verify at 512 bits allocates %.0f/op, want at most 6", allocs)
	}
}

var verifyErr error

func BenchmarkVerify(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			pk, msg, sig := verifyFixture(b, bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verifyErr = Verify(msg, pk, sig)
			}
			if verifyErr != nil {
				b.Fatal(verifyErr)
			}
		})
	}
}
