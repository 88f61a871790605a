package main

import (
	"math"
	"math/big"
	"testing"
	"time"

	"jointadmin/internal/sharedrsa"
)

func TestChecksRejectViolations(t *testing.T) {
	for _, c := range []struct {
		name      string
		good, bad error
	}{
		{"keygen/sign ratio 10",
			checkKeygen([]keygenRow{{bits: 128, n: 3, keygen: 100 * time.Millisecond, sign: time.Millisecond}}),
			checkKeygen([]keygenRow{{bits: 128, n: 3, keygen: 10 * time.Millisecond, sign: time.Millisecond}})},
		{"availability 0.2 off the closed form",
			checkAvailability(3, []availCell{{m: 2, p: 0.2, measured: 0.9}}),
			checkAvailability(3, []availCell{{m: 2, p: 0.2, measured: 0.696}})},
		{"availability falling as m falls",
			checkAvailability(3, []availCell{{m: 3, p: 0.2, measured: 0.50}, {m: 2, p: 0.2, measured: 0.88}}),
			checkAvailability(3, []availCell{{m: 3, p: 0.2, measured: 0.55}, {m: 2, p: 0.2, measured: 0.50}})},
		{"share count off by one",
			checkShares(7, []shareRow{{m: 4, subsets: 35, holdings: 20}}),
			checkShares(7, []shareRow{{m: 4, subsets: 36, holdings: 20}})},
		{"holdings off by one",
			checkShares(7, []shareRow{{m: 4, subsets: 35, holdings: 20}}),
			checkShares(7, []shareRow{{m: 4, subsets: 35, holdings: 21}})},
		{"Case II forged at k = 1",
			checkForgery(3, []forgeryRow{{k: 1, caseI: true}, {k: 3, caseI: true, caseII: true}}),
			checkForgery(3, []forgeryRow{{k: 1, caseI: true, caseII: true}})},
		{"Case I holding at k = 1",
			checkForgery(3, []forgeryRow{{k: 0}}),
			checkForgery(3, []forgeryRow{{k: 1}})},
		{"re-issued ≠ groups",
			checkRekey([]rekeyRow{{groups: 8, reissued: 8}}),
			checkRekey([]rekeyRow{{groups: 8, reissued: 7}})},
		{"lone signer approved",
			checkOutcomes([]outcome{{request: "lone", want: "denied at step3_cosign", got: "denied at step3_cosign"}}),
			checkOutcomes([]outcome{{request: "lone", want: "denied at step3_cosign", got: "approved"}})},
		{"n−1 colluders sign",
			checkCollusion(5, []collusionRow{{k: 4}, {k: 5, canSign: true, canFactor: true}}),
			checkCollusion(5, []collusionRow{{k: 4, canSign: true}})},
	} {
		if c.good != nil {
			t.Errorf("%s: the holding table was rejected: %v", c.name, c.good)
		}
		if c.bad == nil {
			t.Errorf("%s: the violating table passed", c.name)
		}
	}
}

func TestCheckCorrectionRejectsADifferentSignature(t *testing.T) {
	key, msg := dealerKey(t, 3), []byte("m")
	sig, err := sharedrsa.SignJointly(msg, key.Public, key.Shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCorrection(msg, key.Public, sig, sig); err != nil {
		t.Errorf("identical signatures rejected: %v", err)
	}
	other := sharedrsa.Signature{S: new(big.Int).Add(sig.S, big.NewInt(1))}
	if checkCorrection(msg, key.Public, sig, other) == nil || checkCorrection(msg, key.Public, other, other) == nil {
		t.Error("a differing or invalid signature passed")
	}
}

// thresholdKey is an m-of-n resharing of one n-domain dealer key.
func thresholdKey(t *testing.T, key *sharedrsa.DealerResult, m int) *sharedrsa.ThresholdShares {
	t.Helper()
	ts, err := sharedrsa.Reshare(key.Public, key.Shares, m, seeded(int64(m)))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func dealerKey(t *testing.T, n int) *sharedrsa.DealerResult {
	t.Helper()
	key, err := sharedrsa.DealerSplit(512, n, seeded(int64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestAvailabilityMofN(t *testing.T) {
	// With 2-of-3 sharing and 20% downtime availability is high (closed
	// form 0.896); with 3-of-3 it drops (0.512). Every measured rate must
	// track the closed form.
	for _, c := range []struct {
		n, m int
		p    float64
	}{{3, 2, 0.2}, {3, 3, 0.2}, {5, 3, 0.3}} {
		rate, err := availability(thresholdKey(t, dealerKey(t, c.n), c.m), c.p, 300, 42)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", c.n, c.m, err)
		}
		if err := checkAvailability(c.n, []availCell{{m: c.m, p: c.p, measured: rate}}); err != nil {
			t.Error(err)
		}
	}
}

func TestAvailabilityMonotoneInM(t *testing.T) {
	// Lowering m can only improve availability (Section 3.3's point): in
	// the closed form, and measured over the same outages.
	const n, p = 5, 0.25
	key := dealerKey(t, n)
	var cells []availCell
	for m := n; m >= 2; m-- {
		if m < n && closedForm(n, m, p) < closedForm(n, m+1, p) {
			t.Errorf("closed-form availability decreased when lowering m to %d", m)
		}
		rate, err := availability(thresholdKey(t, key, m), p, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, availCell{m: m, p: p, measured: rate})
	}
	if err := checkAvailability(n, cells); err != nil {
		t.Error(err)
	}
}

func TestAvailabilityErrorsOnBrokenShare(t *testing.T) {
	// A corrupted share must surface as an error, not as downtime.
	key := dealerKey(t, 3)
	key.Shares[0].D.Add(key.Shares[0].D, big.NewInt(1))
	if rate, err := availability(thresholdKey(t, key, 2), 0.1, 50, 1); err == nil {
		t.Fatalf("a broken share read as availability %.3f", rate)
	}
}

func TestAnalyticAvailabilityEdges(t *testing.T) {
	if got := closedForm(3, 1, 0); got != 1 {
		t.Errorf("p=0 ⇒ availability 1, got %v", got)
	}
	if got := closedForm(3, 1, 1); got != 0 {
		t.Errorf("p=1 ⇒ availability 0, got %v", got)
	}
	// 2-of-3 at p=0.2: C(3,2)·0.8²·0.2 + 0.8³ = 0.384 + 0.512 = 0.896.
	if got := closedForm(3, 2, 0.2); math.Abs(got-0.896) > 1e-9 {
		t.Errorf("2-of-3 @ 0.2 = %v, want 0.896", got)
	}
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0}}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestTrustLiabilityCaseIvsII(t *testing.T) {
	// E4, the paper's central trust-liability comparison, on real
	// certificates: one compromised domain forges under Case I; n−1 cannot
	// under Case II; all n can.
	if err := e4TrustLiability(); err != nil {
		t.Fatal(err)
	}
}
