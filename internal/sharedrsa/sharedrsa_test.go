package sharedrsa

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// testKeygen memoizes one distributed keygen per (bits, parties) so the
// suite doesn't regenerate keys in every test.
var (
	keygenMu    sync.Mutex
	keygenCache = make(map[[2]int]*Result)
)

func sharedKey(t *testing.T, bits, parties int) *Result {
	t.Helper()
	keygenMu.Lock()
	defer keygenMu.Unlock()
	k := [2]int{bits, parties}
	if res, ok := keygenCache[k]; ok {
		return res
	}
	res, err := GenerateShared(Config{Parties: parties, Bits: bits})
	if err != nil {
		t.Fatalf("keygen (%d bits, %d parties): %v", bits, parties, err)
	}
	keygenCache[k] = res
	return res
}

func TestGenerateSharedProducesBiprime(t *testing.T) {
	res := sharedKey(t, 128, 3)
	// Reconstruct p and q from the views (the test plays the global
	// observer; no party can do this) and check primality.
	p, q := new(big.Int), new(big.Int)
	for _, v := range res.Views {
		p.Add(p, v.PShare)
		q.Add(q, v.QShare)
	}
	if !p.ProbablyPrime(32) {
		t.Errorf("p = %v is not prime", p)
	}
	if !q.ProbablyPrime(32) {
		t.Errorf("q = %v is not prime", q)
	}
	if new(big.Int).Mul(p, q).Cmp(res.Public.N) != 0 {
		t.Error("N ≠ p·q")
	}
	four := big.NewInt(4)
	three := big.NewInt(3)
	if new(big.Int).Mod(p, four).Cmp(three) != 0 || new(big.Int).Mod(q, four).Cmp(three) != 0 {
		t.Error("primes must be ≡ 3 (mod 4) for the biprimality test")
	}
	if res.Public.Bits() < 126 {
		t.Errorf("modulus only %d bits", res.Public.Bits())
	}
}

func TestGenerateSharedNoPartyKnowsFactors(t *testing.T) {
	res := sharedKey(t, 128, 3)
	// Any proper subset of shares must not reconstruct p: the missing
	// party's share is a large random value.
	p := new(big.Int)
	for _, v := range res.Views[:2] {
		p.Add(p, v.PShare)
	}
	if new(big.Int).Mod(res.Public.N, p).Sign() == 0 && p.Cmp(big.NewInt(1)) > 0 {
		t.Error("two parties' shares already divide N")
	}
}

func TestJointSignatureRoundTrip(t *testing.T) {
	res := sharedKey(t, 128, 3)
	msg := []byte("threshold attribute certificate body")
	sig, err := SignJointly(msg, res.Public, res.Shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg, res.Public, sig); err != nil {
		t.Fatal(err)
	}
	if sig.Correction < 0 || sig.Correction > 3 {
		t.Errorf("correction %d outside [0, n]", sig.Correction)
	}
	// A different message must not verify.
	if err := Verify([]byte("other message"), res.Public, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-message verify: %v", err)
	}
}

func TestJointSignatureSubsetFails(t *testing.T) {
	// E8 operational check: fewer than all n partials cannot produce a
	// valid n-of-n signature.
	res := sharedKey(t, 128, 3)
	msg := []byte("msg")
	partials := make([]PartialSignature, 2)
	for i, sh := range res.Shares[:2] {
		p, err := PartialSign(msg, res.Public, sh)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = p
	}
	if _, err := Combine(msg, res.Public, partials, 3); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("2-of-3 n-of-n combine: %v", err)
	}
}

func TestCombineRejectsDuplicates(t *testing.T) {
	res := sharedKey(t, 128, 3)
	msg := []byte("msg")
	p, err := PartialSign(msg, res.Public, res.Shares[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combine(msg, res.Public, []PartialSignature{p, p}, 3); !errors.Is(err, ErrPartialMismatch) {
		t.Errorf("duplicate partials: %v", err)
	}
	if _, err := Combine(msg, res.Public, nil, 3); !errors.Is(err, ErrPartialMismatch) {
		t.Errorf("no partials: %v", err)
	}
}

// TestGenerateSharedFiveParties covers party counts other than the
// running example's three: n = 2, where the BGW polynomial has degree
// t = 0, and n = 5. All n shares sign jointly; any n−1 do not.
func TestGenerateSharedFiveParties(t *testing.T) {
	for _, n := range []int{2, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n == 5 && testing.Short() {
				t.Skip("five-party keygen in short mode")
			}
			res := sharedKey(t, 128, n)
			msg := []byte("joint certificate")
			sig, err := SignJointly(msg, res.Public, res.Shares)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(msg, res.Public, sig); err != nil {
				t.Fatal(err)
			}
			partials := make([]PartialSignature, n-1)
			for i, sh := range res.Shares[1:] {
				if partials[i], err = PartialSign(msg, res.Public, sh); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Combine(msg, res.Public, partials, n); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("%d of %d shares combined: %v", n-1, n, err)
			}
		})
	}
}

// TestGenerateSharedSeedReproducible: one seed, one key generation — the
// same N, the same search and the same shares — so that the experiments
// that seed it repeat.
func TestGenerateSharedSeedReproducible(t *testing.T) {
	gen := func() *Result {
		res, err := GenerateShared(Config{Parties: 3, Bits: 128, Rand: rand.New(rand.NewSource(5))})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := gen(), gen()
	if a.Public.N.Cmp(b.Public.N) != 0 {
		t.Errorf("N differs under one seed: %v vs %v", a.Public.N, b.Public.N)
	}
	if a.Attempts != b.Attempts || a.SieveRejects != b.SieveRejects || a.BiprimeRejects != b.BiprimeRejects {
		t.Errorf("search differs under one seed: attempts %d/%d, sieve rejects %d/%d, biprime rejects %d/%d",
			a.Attempts, b.Attempts, a.SieveRejects, b.SieveRejects, a.BiprimeRejects, b.BiprimeRejects)
	}
	if !reflect.DeepEqual(a.Shares, b.Shares) {
		t.Error("exponent shares differ under one seed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := GenerateShared(Config{Parties: 1}); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("1 party: %v", err)
	}
	if _, err := GenerateShared(Config{Parties: 3, Bits: 32}); err == nil {
		t.Error("32-bit modulus accepted")
	}
	if _, err := GenerateShared(Config{Parties: 3, E: 15}); err == nil {
		t.Error("composite exponent accepted")
	}
	// Exhaustion path: an absurdly small attempt budget.
	_, err := GenerateShared(Config{Parties: 3, Bits: 256, MaxAttempts: 1, BiprimeRounds: 1})
	if err != nil && !errors.Is(err, ErrKeygenExhausted) {
		t.Errorf("exhaustion: %v", err)
	}
}

// TestDefaultAttemptBudgetCannotRunOut pins the default MaxAttempts to the
// expected length of the search it bounds. An iteration succeeds when two
// independent candidates ≡ 3 (mod 4) of Bits/2 bits are both prime, each
// with probability 2/(half·ln 2), so the iteration count is geometric with
// mean (half·ln 2/2)²; a budget of r means is exhausted with probability
// e⁻ʳ. r ≥ 30 keeps that below 2⁻⁴⁰ — the old default was r ≈ 5.5, which a
// distributed Form or Join exhausted about once in 250 runs.
func TestDefaultAttemptBudgetCannotRunOut(t *testing.T) {
	for _, bits := range []int{128, 256, 512} {
		cfg, err := Config{Parties: 3, Bits: bits}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		expected := math.Pow(float64(bits/2)*math.Ln2/2, 2)
		ratio := float64(cfg.MaxAttempts) / expected
		if ratio < 30 || ratio > 40 {
			t.Errorf("bits=%d: default budget %d is %.1f× the expected %.0f attempts, want 30–40×",
				bits, cfg.MaxAttempts, ratio, expected)
		}
	}
}

// TestKeyIDMatchesDefinition pins KeyID to its definition, the hex of the
// first 16 bytes of SHA-256(N.Bytes() ‖ e.Bytes()), across the stack
// buffer's edge, and bounds it to the one allocation of its string.
func TestKeyIDMatchesDefinition(t *testing.T) {
	one := big.NewInt(1)
	e := big.NewInt(65537)
	for _, n := range []*big.Int{
		big.NewInt(0), big.NewInt(3),
		new(big.Int).Sub(new(big.Int).Lsh(one, 512), one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 4096), one),
		new(big.Int).Lsh(one, 4096+64),
	} {
		pk := PublicKey{N: n, E: e}
		h := sha256.Sum256(append(n.Bytes(), e.Bytes()...))
		if got, want := pk.KeyID(), fmt.Sprintf("%x", h[:16]); got != want {
			t.Errorf("%d-bit N: KeyID %s, want %s", n.BitLen(), got, want)
		}
	}
	pk := PublicKey{N: new(big.Int).Lsh(one, 2047), E: e}
	if allocs := testing.AllocsPerRun(100, func() { _ = pk.KeyID() }); allocs > 1 {
		t.Errorf("KeyID allocates %.0f/op, want at most 1", allocs)
	}
}

func TestKeyIDStableAndDistinct(t *testing.T) {
	res := sharedKey(t, 128, 3)
	id1 := res.Public.KeyID()
	id2 := res.Public.KeyID()
	if id1 != id2 || id1 == "" {
		t.Errorf("key id unstable: %q vs %q", id1, id2)
	}
	other, err := DealerSplit(256, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.Public.KeyID() == id1 {
		t.Error("distinct keys share a key id")
	}
	if !res.Public.Equal(res.Public) || res.Public.Equal(other.Public) {
		t.Error("Equal misbehaves")
	}
}

// TestHashToModulusMatchesDefinition pins the full-domain hash to its
// definition, SHA-256(ctr ‖ msg) blocks concatenated and reduced mod N,
// on both sides of the stack buffers' edges.
func TestHashToModulusMatchesDefinition(t *testing.T) {
	one := big.NewInt(1)
	for _, bits := range []int{2, 64, 512, 2048, 4096, 4096 + 8*sha256.Size + 1} {
		n := new(big.Int).Sub(new(big.Int).Lsh(one, uint(bits)), big.NewInt(3))
		for _, size := range []int{0, 1, 200, 1020, 1021, 5000} {
			msg := make([]byte, size)
			for i := range msg {
				msg[i] = byte(i * 7)
			}
			need := (n.BitLen() + 6) / 8
			var out []byte
			for i := 0; len(out) < need; i++ {
				h := sha256.New()
				h.Write([]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
				h.Write(msg)
				out = h.Sum(out)
			}
			want := new(big.Int).SetBytes(out[:need])
			if want.Mod(want, n).Sign() == 0 {
				want.SetInt64(1)
			}
			if got := hashToModulus(msg, n); got.Cmp(want) != 0 {
				t.Errorf("%d-bit N, %d-byte msg: %v, want %v", bits, size, got, want)
			}
		}
	}
}

func TestHashMessageDomain(t *testing.T) {
	res := sharedKey(t, 128, 3)
	h1 := HashMessage([]byte("a"), res.Public)
	h2 := HashMessage([]byte("b"), res.Public)
	if h1.Cmp(h2) == 0 {
		t.Error("hash collision on distinct messages")
	}
	if h1.Cmp(res.Public.N) >= 0 || h1.Sign() <= 0 {
		t.Error("hash outside (0, N)")
	}
	if h1.Cmp(HashMessage([]byte("a"), res.Public)) != 0 {
		t.Error("hash not deterministic")
	}
}

func TestTranscriptRecordsViews(t *testing.T) {
	res := sharedKey(t, 128, 3)
	if res.Transcript.Parties() == 0 {
		t.Fatal("no transcript views recorded")
	}
	if len(res.Transcript.View(1)) == 0 {
		t.Error("party 1 observed nothing")
	}
	// Views are copies.
	v := res.Transcript.View(1)
	if len(v) > 0 {
		v[0] = "mutated"
		if res.Transcript.View(1)[0] == "mutated" {
			t.Error("View leaked internal slice")
		}
	}
}

func TestDealerSplitRoundTrip(t *testing.T) {
	res, err := DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("dealer baseline")
	sig, err := SignJointly(msg, res.Public, res.Shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg, res.Public, sig); err != nil {
		t.Fatal(err)
	}
	if sig.Correction != 0 {
		t.Errorf("dealer split needs correction %d, want 0 (exact mod-φ split)", sig.Correction)
	}
	if _, err := DealerSplit(512, 1, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("1 party: %v", err)
	}
}

func TestLockBoxCaseI(t *testing.T) {
	res, err := DealerSplit(512, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLockBox(res, []string{"pw-D1", "pw-D2", "pw-D3"})
	msg := []byte("case I certificate")

	// All three passwords: signs.
	sig, err := lb.Sign(msg, []string{"pw-D1", "pw-D2", "pw-D3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(msg, lb.Public(), sig); err != nil {
		t.Fatal(err)
	}
	// Missing one: refused (Requirement III at the lock box level).
	if _, err := lb.Sign(msg, []string{"pw-D1", "pw-D2"}); err == nil {
		t.Fatal("lock box signed without all passwords")
	}
	// Wrong password doesn't count.
	if _, err := lb.Sign(msg, []string{"pw-D1", "pw-D2", "wrong"}); err == nil {
		t.Fatal("lock box accepted a wrong password")
	}

	// Compromise: the attacker signs unilaterally — the single point of
	// trust failure of Case I (experiment E4).
	if lb.Compromised() {
		t.Fatal("fresh lock box reports compromised")
	}
	d := lb.Compromise()
	if !lb.Compromised() {
		t.Fatal("compromise not recorded")
	}
	h := HashMessage(msg, lb.Public())
	forged := Signature{S: new(big.Int).Exp(h, d, lb.Public().N)}
	if err := Verify(msg, lb.Public(), forged); err != nil {
		t.Fatal("compromised key failed to forge — expected success demonstrating the liability")
	}
}

func TestCombineExactMatchesSearch(t *testing.T) {
	res := sharedKey(t, 128, 3)
	msg := []byte("ablation")
	partials := make([]PartialSignature, len(res.Shares))
	for i, sh := range res.Shares {
		p, err := PartialSign(msg, res.Public, sh)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = p
	}
	searched, err := Combine(msg, res.Public, partials, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := CombineExact(msg, res.Public, partials, searched.Correction)
	if err != nil {
		t.Fatal(err)
	}
	if searched.S.Cmp(exact.S) != 0 {
		t.Error("exact and searched signatures differ")
	}
	if _, err := CombineExact(msg, res.Public, partials, searched.Correction+1); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong k accepted: %v", err)
	}
}
