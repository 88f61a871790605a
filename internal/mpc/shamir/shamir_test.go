package shamir

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

// testPrime is a 127-bit Mersenne prime, plenty for test secrets.
var testPrime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))

func TestSplitReconstructRoundTrip(t *testing.T) {
	secret := big.NewInt(424242)
	shares, err := Split(secret, 3, 5, testPrime, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("len(shares) = %d", len(shares))
	}
	got, err := Interpolate(shares[:3], big.NewInt(0), testPrime)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Errorf("reconstructed %v, want %v", got, secret)
	}
	// Any other 3-subset works too.
	got2, err := Interpolate([]Share{shares[0], shares[2], shares[4]}, big.NewInt(0), testPrime)
	if err != nil || got2.Cmp(secret) != 0 {
		t.Errorf("subset reconstruction: %v, %v", got2, err)
	}
	// All 5 shares work as well.
	got3, err := Interpolate(shares, big.NewInt(0), testPrime)
	if err != nil || got3.Cmp(secret) != 0 {
		t.Errorf("full reconstruction: %v, %v", got3, err)
	}
}

func TestBelowThresholdRevealsNothing(t *testing.T) {
	// With k-1 shares, every candidate secret is equally consistent: for
	// any target value there exists a polynomial through the k-1 points
	// with that constant term. We verify the weaker observable property
	// that reconstruction from k-1 shares yields the wrong value with
	// overwhelming probability across trials.
	secret := big.NewInt(31337)
	hits := 0
	for trial := 0; trial < 20; trial++ {
		shares, err := Split(secret, 3, 5, testPrime, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Interpolate(shares[:2], big.NewInt(0), testPrime)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) == 0 {
			hits++
		}
	}
	if hits > 1 {
		t.Errorf("below-threshold reconstruction matched secret %d/20 times", hits)
	}
}

func TestSplitValidation(t *testing.T) {
	secret := big.NewInt(5)
	if _, err := Split(secret, 0, 3, testPrime, nil); !errors.Is(err, ErrThreshold) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := Split(secret, 4, 3, testPrime, nil); !errors.Is(err, ErrThreshold) {
		t.Errorf("k>n: %v", err)
	}
	if _, err := Split(secret, 2, 3, big.NewInt(4), nil); !errors.Is(err, ErrBadField) {
		t.Errorf("even modulus: %v", err)
	}
	if _, err := Split(testPrime, 2, 3, testPrime, nil); !errors.Is(err, ErrBadField) {
		t.Errorf("secret >= prime: %v", err)
	}
	if _, err := Split(big.NewInt(-1), 2, 3, testPrime, nil); !errors.Is(err, ErrBadField) {
		t.Errorf("negative secret: %v", err)
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, err := Interpolate(nil, big.NewInt(0), testPrime); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("empty shares: %v", err)
	}
	s := Share{X: big.NewInt(1), Y: big.NewInt(2)}
	if _, err := Interpolate([]Share{s, Share{X: new(big.Int).Set(s.X), Y: new(big.Int).Set(s.Y)}}, big.NewInt(0), testPrime); !errors.Is(err, ErrDuplicateX) {
		t.Errorf("duplicate x: %v", err)
	}
	if _, err := Interpolate([]Share{s}, big.NewInt(0), nil); !errors.Is(err, ErrBadField) {
		t.Errorf("nil prime: %v", err)
	}
}

func TestAddShares(t *testing.T) {
	a, err := Split(big.NewInt(100), 2, 3, testPrime, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(big.NewInt(23), 2, 3, testPrime, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := AddShares(a, b, testPrime)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Interpolate(sum[:2], big.NewInt(0), testPrime)
	if err != nil || got.Cmp(big.NewInt(123)) != 0 {
		t.Errorf("sum = %v, %v", got, err)
	}
	// Misaligned vectors are rejected.
	if _, err := AddShares(a, b[:2], testPrime); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMulPointwiseBGW(t *testing.T) {
	// Degree-1 sharings among 3 parties: pointwise product is a degree-2
	// polynomial through 3 points, interpolating to p*q at 0 — the exact
	// step the shared-RSA keygen uses for N = pq.
	p, q := big.NewInt(10007), big.NewInt(10009)
	sp, err := Split(p, 2, 3, testPrime, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := Split(q, 2, 3, testPrime, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MulPointwise(sp, sq, testPrime)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Interpolate(prod, big.NewInt(0), testPrime)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(p, q)
	if got.Cmp(want) != 0 {
		t.Errorf("N = %v, want %v", got, want)
	}
}

func TestInterpolateAtNonZero(t *testing.T) {
	// Polynomial f(x) = 7 + 3x over the field; points (1,10), (2,13).
	shares := []Share{
		{X: big.NewInt(1), Y: big.NewInt(10)},
		{X: big.NewInt(2), Y: big.NewInt(13)},
	}
	got, err := Interpolate(shares, big.NewInt(5), testPrime)
	if err != nil || got.Cmp(big.NewInt(22)) != 0 {
		t.Errorf("f(5) = %v, %v; want 22", got, err)
	}
}

// Property: round trip holds for random secrets, thresholds, and subsets.
func TestSplitReconstructProperty(t *testing.T) {
	f := func(raw uint64, kRaw, nRaw uint8) bool {
		n := 2 + int(nRaw%6) // 2..7
		k := 1 + int(kRaw)%n // 1..n
		secret := new(big.Int).SetUint64(raw)
		shares, err := Split(secret, k, n, testPrime, rand.Reader)
		if err != nil {
			return false
		}
		got, err := Interpolate(shares[:k], big.NewInt(0), testPrime)
		if err != nil {
			return false
		}
		return got.Cmp(secret) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: sharing is additively homomorphic for random pairs.
func TestAdditiveHomomorphismProperty(t *testing.T) {
	f := func(a64, b64 uint64) bool {
		a := new(big.Int).SetUint64(a64)
		b := new(big.Int).SetUint64(b64)
		sa, err := Split(a, 3, 5, testPrime, rand.Reader)
		if err != nil {
			return false
		}
		sb, err := Split(b, 3, 5, testPrime, rand.Reader)
		if err != nil {
			return false
		}
		sum, err := AddShares(sa, sb, testPrime)
		if err != nil {
			return false
		}
		got, err := Interpolate(sum[1:4], big.NewInt(0), testPrime)
		if err != nil {
			return false
		}
		want := new(big.Int).Add(a, b)
		want.Mod(want, testPrime)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
