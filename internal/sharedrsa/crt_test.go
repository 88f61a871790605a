package sharedrsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"os"
	"strings"
	"sync"
	"testing"
)

// crtFixture is a conventional key in CRT form together with its full
// private exponent d = e⁻¹ mod φ(N), the reference the CRT signer is
// compared with.
type crtFixture struct {
	key *CRTKey
	d   *big.Int
}

// crtFixtures reads the fixed 512-, 1024- and 2048-bit primes of
// testdata/crt_keys.txt and derives every other value from them.
var crtFixtures = sync.OnceValues(func() (map[int]crtFixture, error) {
	raw, err := os.ReadFile("testdata/crt_keys.txt")
	if err != nil {
		return nil, err
	}
	out := make(map[int]crtFixture)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var bits int
		var ph, qh string
		if strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := fmt.Sscan(line, &bits, &ph, &qh); err != nil {
			return nil, fmt.Errorf("crt_keys.txt: %q: %w", line, err)
		}
		p, _ := new(big.Int).SetString(ph, 16)
		q, _ := new(big.Int).SetString(qh, 16)
		one, e := big.NewInt(1), big.NewInt(65537)
		pm1, qm1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
		d := new(big.Int).ModInverse(e, new(big.Int).Mul(pm1, qm1))
		pub := PublicKey{N: new(big.Int).Mul(p, q), E: e}
		key, err := NewCRTKey(pub, []*big.Int{p, q},
			new(big.Int).Mod(d, pm1), new(big.Int).Mod(d, qm1), new(big.Int).ModInverse(q, p))
		if err != nil {
			return nil, err
		}
		if pub.N.BitLen() != bits {
			return nil, fmt.Errorf("crt_keys.txt: %d-bit key labelled %d", pub.N.BitLen(), bits)
		}
		out[bits] = crtFixture{key: key, d: d}
	}
	return out, nil
})

func crtKeys(tb testing.TB) map[int]crtFixture {
	tb.Helper()
	keys, err := crtFixtures()
	if err != nil {
		tb.Fatal(err)
	}
	return keys
}

// FuzzSignCRT: for any message, the CRT signature equals the full-width
// H(M)^d mod N bit for bit, at every fixture size.
func FuzzSignCRT(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"user":"alice","at":7,"op":"read","object":"O"}`))
	f.Add(make([]byte, 300))
	keys := crtKeys(f)
	f.Fuzz(func(t *testing.T, msg []byte) {
		for bits, fx := range keys {
			sig, err := fx.key.Sign(msg)
			if err != nil {
				t.Fatalf("%d bits: %v", bits, err)
			}
			h := hashToModulus(msg, fx.key.pub.N)
			if want := new(big.Int).Exp(h, fx.d, fx.key.pub.N); sig.S.Cmp(want) != 0 {
				t.Fatalf("%d bits, msg %x: CRT %v, Exp %v", bits, msg, sig.S, want)
			}
		}
	})
}

// nearTopFixture is a 512-bit key whose primes are the two largest below
// 2^256 with e = 65537 coprime to p − 1: every word of each half's
// modulus is 2^64 − 1 but the lowest, so the four-word kernel's carry
// word and final subtraction are taken as often as they can be.
var nearTopFixture = sync.OnceValues(func() (crtFixture, error) {
	one, e := big.NewInt(1), big.NewInt(65537)
	var primes []*big.Int
	for c := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one); len(primes) < 2; c = new(big.Int).Sub(c, big.NewInt(2)) {
		pm1 := new(big.Int).Sub(c, one)
		if c.ProbablyPrime(20) && new(big.Int).GCD(nil, nil, e, pm1).Cmp(one) == 0 {
			primes = append(primes, c)
		}
	}
	p, q := primes[0], primes[1]
	pm1, qm1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
	d := new(big.Int).ModInverse(e, new(big.Int).Mul(pm1, qm1))
	key, err := NewCRTKey(PublicKey{N: new(big.Int).Mul(p, q), E: e}, primes,
		new(big.Int).Mod(d, pm1), new(big.Int).Mod(d, qm1), new(big.Int).ModInverse(q, p))
	return crtFixture{key: key, d: d}, err
})

// TestSignCRTEdgeBases covers the bases no message hashes to in practice:
// multiples of a prime (one half is 0), one-word values, and N − 1, on
// every fixture and on the key whose primes sit just below 2^256.
func TestSignCRTEdgeBases(t *testing.T) {
	fixtures := map[string]crtFixture{}
	for bits, fx := range crtKeys(t) {
		fixtures[fmt.Sprint(bits)] = fx
	}
	nearTop, err := nearTopFixture()
	if err != nil {
		t.Fatal(err)
	}
	fixtures["512 near 2^256"] = nearTop
	for bits, fx := range fixtures {
		k, one := fx.key, big.NewInt(1)
		for name, h := range map[string]*big.Int{
			"1":    one,
			"2":    big.NewInt(2),
			"p":    k.p,
			"q":    k.q,
			"p+1":  new(big.Int).Add(k.p, one),
			"2q":   new(big.Int).Lsh(k.q, 1),
			"N-1":  new(big.Int).Sub(k.pub.N, one),
			"H(M)": hashToModulus([]byte("edge"), k.pub.N),
		} {
			var s big.Int
			k.sign(&s, h)
			if want := new(big.Int).Exp(h, fx.d, k.pub.N); s.Cmp(want) != 0 {
				t.Errorf("%s bits, h = %s: CRT %v, Exp %v", bits, name, &s, want)
			}
		}
	}
}

// TestSignFaultGate corrupts one CRT half (a bit of dP). The signer
// releases nothing, and the reason it must not: the faulty s′ factors N,
// gcd(s′^e − H, N) = q.
func TestSignFaultGate(t *testing.T) {
	good := crtKeys(t)[512].key
	faulty := *good
	faulty.dP = new(big.Int).Set(good.dP)
	faulty.dP.SetBit(faulty.dP, 3, faulty.dP.Bit(3)^1)

	msg := []byte("request component")
	sig, err := faulty.Sign(msg)
	if !errors.Is(err, ErrSignFault) || sig.S != nil {
		t.Fatalf("faulty key: Sign = (%v, %v), want no signature and ErrSignFault", sig.S, err)
	}
	if _, err := good.Sign(msg); err != nil {
		t.Fatalf("good key: %v", err)
	}

	h := hashToModulus(msg, good.pub.N)
	var s big.Int
	faulty.sign(&s, h)
	g := new(big.Int).Exp(&s, good.pub.E, good.pub.N)
	g.Sub(g, h).GCD(nil, nil, g.Abs(g), good.pub.N)
	if g.Cmp(good.q) != 0 {
		t.Fatalf("gcd(s′^e − h, N) = %v, want the prime q = %v", g, good.q)
	}
}

func TestNewCRTKeyRefusesMalformed(t *testing.T) {
	k := crtKeys(t)[512].key
	three := big.NewInt(3)
	for name, primes := range map[string][]*big.Int{
		"one prime":    {k.pub.N},
		"three primes": {k.p, k.q, three},
		"wrong primes": {k.p, new(big.Int).Add(k.q, big.NewInt(2))},
		"nil prime":    {k.p, nil},
	} {
		if _, err := NewCRTKey(k.pub, primes, k.dP, k.dQ, k.qInv); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewCRTKey(k.pub, []*big.Int{k.p, k.q}, k.dP, nil, k.qInv); err == nil {
		t.Error("missing dQ: accepted")
	}
	if _, err := NewCRTKey(PublicKey{N: big.NewInt(0), E: k.pub.E}, []*big.Int{k.p, k.q}, k.dP, k.dQ, k.qInv); err == nil {
		t.Error("zero modulus: accepted")
	}
}

// TestCRTKernelSelection: the halves of a key whose primes are four
// 64-bit words run on the four-word kernel, larger ones on math/big.
func TestCRTKernelSelection(t *testing.T) {
	nearTop, err := nearTopFixture()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"512": bits.UintSize == 64, "512 near 2^256": bits.UintSize == 64, "1024": false, "2048": false}
	keys := map[string]*CRTKey{"512 near 2^256": nearTop.key}
	for n, fx := range crtKeys(t) {
		keys[fmt.Sprint(n)] = fx.key
	}
	for name, k := range keys {
		if got := k.mp != nil && k.mq != nil; got != want[name] {
			t.Errorf("%s bits: four-word kernel %v, want %v", name, got, want[name])
		}
	}
}
