// Command experiments is the reproduction record: it regenerates every
// table of EXPERIMENTS.md at fixed work and seeds and checks the shape
// each one claims, so a broken claim exits non-zero. E9 (soundness) and
// E10 (the §4.3 derivation) are proofs and live in the tests.
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -only e3   # one of e1–e8, e11–e13
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"jointadmin/internal/authority"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

var experiments = []struct {
	id  string
	run func() error
}{
	{"e1", e1Keygen},
	{"e2", e2JointSignature},
	{"e3", e3Availability},
	{"e4", e4TrustLiability},
	{"e5", e5Authorization},
	{"e6", e6Revocation},
	{"e7", e7Rekey},
	{"e8", e8Collusion},
	{"e11", e11Observability},
	{"e12", e12DelegationScenarios},
	{"e13", e13Membership},
}

func main() {
	only := flag.String("only", "", "run a single experiment: e1–e8 or e11–e13")
	flag.Parse()
	ran := false
	for _, x := range experiments {
		if *only != "" && *only != x.id {
			continue
		}
		ran = true
		if err := x.run(); err != nil {
			log.Fatalf("%s: %v", x.id, err)
		}
		fmt.Println()
	}
	if !ran {
		log.Fatalf("no experiment %q", *only)
	}
}

// seeded is a deterministic random source, so a run repeats its
// outages and its keys: GenerateShared, GenerateKey and DealerSplit read
// it in fixed-width draws only.
func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mean runs f reps times and returns the mean duration of one run.
func mean(reps int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

// checked prints the claim an experiment's check established.
func checked(err error, claim string) error {
	if err == nil {
		fmt.Println("checked:", claim)
	}
	return err
}

// ---- E1: shared keygen vs one joint signature ----

type keygenRow struct {
	bits, n, attempts int // attempts: mean candidate pairs per keygen
	keygen, sign      time.Duration
}

// checkKeygen: every keygen costs at least 100 joint signatures under
// the key it produced (Malkin et al.: minutes against seconds).
func checkKeygen(rows []keygenRow) error {
	for _, r := range rows {
		if r.keygen < 100*r.sign {
			return fmt.Errorf("%d-bit n=%d: keygen %v is under 100× a joint signature (%v)", r.bits, r.n, r.keygen, r.sign)
		}
	}
	return nil
}

func e1Keygen() error {
	const seeds = 4
	fmt.Printf("E1 — Boneh–Franklin shared keygen vs one joint signature under its key, mean of seeds 1–%d (§3.1)\n", seeds)
	fmt.Println("bits   n   keygen      attempts (expected)   sign       keygen/sign")
	msg := []byte("probe")
	var rows []keygenRow
	for _, c := range []struct{ bits, n int }{{128, 3}, {128, 5}, {128, 7}, {256, 3}} {
		r := keygenRow{bits: c.bits, n: c.n}
		var res *sharedrsa.Result
		seed := int64(0)
		keygen, err := mean(seeds, func() (err error) {
			seed++
			if res, err = sharedrsa.GenerateShared(sharedrsa.Config{Parties: c.n, Bits: c.bits, Rand: seeded(seed)}); err == nil {
				r.attempts += res.Attempts
			}
			return err
		})
		if err != nil {
			return err
		}
		r.keygen, r.attempts = keygen, r.attempts/seeds
		if r.sign, err = mean(20, func() error {
			_, err := sharedrsa.SignJointly(msg, res.Public, res.Shares)
			return err
		}); err != nil {
			return err
		}
		// Both halves of a candidate must be prime: each is with probability
		// 2/(half·ln 2), so the search takes (half·ln 2/2)² pairs on average.
		expected := math.Pow(float64(c.bits/2)*math.Ln2/2, 2)
		fmt.Printf("%4d  %2d   %-10v  %8d (%5.0f)        %-9v  %8.0f×\n", r.bits, r.n, r.keygen.Round(time.Millisecond),
			r.attempts, expected, r.sign.Round(time.Microsecond), float64(r.keygen)/float64(r.sign))
		rows = append(rows, r)
	}
	fmt.Println("shape: keygen is a rejection search, its candidates growing with the square of")
	fmt.Println("the bits and each costing more with n; a joint signature under the same key")
	fmt.Println("is orders of magnitude cheaper.")
	return checked(checkKeygen(rows), "every keygen costs ≥ 100× a joint signature under its key")
}

// ---- E2: joint signature cost, and the trial-correction ablation ----

// checkCorrection: Combine's search and CombineExact, handed the
// remainder, produce the same signature, and it verifies.
func checkCorrection(msg []byte, pk sharedrsa.PublicKey, searched, exact sharedrsa.Signature) error {
	if searched.S.Cmp(exact.S) != 0 || searched.Correction != exact.Correction {
		return fmt.Errorf("search found j=%d, exact was handed j=%d: signatures differ", searched.Correction, exact.Correction)
	}
	return sharedrsa.Verify(msg, pk, searched)
}

func e2JointSignature() error {
	fmt.Println("E2 — joint signature cost against n, 512-bit dealer keys (§3.1–3.2)")
	fmt.Println("n   sign")
	msg := []byte("threshold attribute certificate payload")
	for _, n := range []int{3, 5, 7, 9} {
		key, err := sharedrsa.DealerSplit(512, n, seeded(int64(n)))
		if err != nil {
			return err
		}
		sign, err := mean(50, func() error {
			_, err := sharedrsa.SignJointly(msg, key.Public, key.Shares)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%d   %v\n", n, sign.Round(time.Microsecond))
	}
	fmt.Println("shape: the work stays linear in n — one partial exponentiation per domain — while")
	fmt.Printf("the wall time runs ⌈n/GOMAXPROCS⌉ partials deep (GOMAXPROCS=%d).\n", runtime.GOMAXPROCS(0))

	// Ablation (DESIGN.md §5): a Boneh–Franklin key's partials leave a
	// remainder j ≤ n that Combine searches for; CombineExact is handed it.
	res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: 5, Bits: 128, Rand: seeded(2)})
	if err != nil {
		return err
	}
	partials := make([]sharedrsa.PartialSignature, len(res.Shares))
	for i, sh := range res.Shares {
		if partials[i], err = sharedrsa.PartialSign(msg, res.Public, sh); err != nil {
			return err
		}
	}
	var searched, exact sharedrsa.Signature
	search, err := mean(200, func() (err error) {
		searched, err = sharedrsa.Combine(msg, res.Public, partials, len(partials))
		return err
	})
	if err != nil {
		return err
	}
	known, err := mean(200, func() (err error) {
		exact, err = sharedrsa.CombineExact(msg, res.Public, partials, searched.Correction)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("ablation, 128-bit shared key, n=5, remainder j=%d: combine by search %v, exact %v\n",
		searched.Correction, search.Round(time.Microsecond), known.Round(time.Microsecond))
	return checked(checkCorrection(msg, res.Public, searched, exact), "the searched and the exact combination are the same valid signature")
}

// ---- E3: m-of-n availability and share blowup ----

// availability is the fraction of trials in which the domains that are
// up — each independently down with probability p — produce a valid
// quorum signature. Whenever at least m are up, a signing or
// verification failure is an error: it is a broken share, not downtime.
func availability(ts *sharedrsa.ThresholdShares, p float64, trials int, seed int64) (float64, error) {
	rng := seeded(seed)
	msg := []byte("availability probe")
	signed := 0
	for trial := 0; trial < trials; trial++ {
		var quorum []int
		for d := 1; d <= ts.N; d++ {
			if rng.Float64() >= p {
				quorum = append(quorum, d)
			}
		}
		if len(quorum) < ts.M {
			continue
		}
		sig, err := ts.QuorumSign(msg, quorum)
		if err == nil {
			err = sharedrsa.Verify(msg, ts.Public, sig)
		}
		if err != nil {
			return 0, fmt.Errorf("trial %d: quorum %v of %d-of-%d: %w", trial, quorum, ts.M, ts.N, err)
		}
		signed++
	}
	return float64(signed) / float64(trials), nil
}

// closedForm is the binomial tail Σ_{k=m..n} C(n,k)(1−p)^k p^(n−k): the
// probability that at least m of n domains are up.
func closedForm(n, m int, p float64) float64 {
	total := 0.0
	for k := m; k <= n; k++ {
		total += binom(n, k) * math.Pow(1-p, float64(k)) * math.Pow(p, float64(n-k))
	}
	return total
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

type availCell struct {
	m        int
	p        float64
	measured float64
}

type shareRow struct{ m, subsets, holdings int }

// availTolerance bounds |measured − closed form| per cell.
const availTolerance = 0.08

// checkAvailability: every measured rate is within availTolerance of the
// closed form, and at each p lowering m never lowers it. Cells are in
// decreasing m, every m at the same p drawing the same outages.
func checkAvailability(n int, cells []availCell) error {
	last := map[float64]availCell{}
	for _, c := range cells {
		if want := closedForm(n, c.m, c.p); c.measured < want-availTolerance || c.measured > want+availTolerance {
			return fmt.Errorf("m=%d p=%.2f: measured %.3f, closed form %.3f (tolerance %.2f)", c.m, c.p, c.measured, want, availTolerance)
		}
		if prev, ok := last[c.p]; ok && c.measured < prev.measured {
			return fmt.Errorf("p=%.2f: lowering m from %d to %d lowered availability %.3f → %.3f", c.p, prev.m, c.m, prev.measured, c.measured)
		}
		last[c.p] = c
	}
	return nil
}

// checkShares: an m-of-n sharing holds C(n, n−m+1) sub-shares, C(n−1, n−m)
// of them per domain.
func checkShares(n int, rows []shareRow) error {
	for _, r := range rows {
		if want := int(binom(n, n-r.m+1)); r.subsets != want {
			return fmt.Errorf("m=%d: %d sub-shares, want C(%d,%d) = %d", r.m, r.subsets, n, n-r.m+1, want)
		}
		if want := int(binom(n-1, n-r.m)); r.holdings != want {
			return fmt.Errorf("m=%d: a domain holds %d sub-shares, want C(%d,%d) = %d", r.m, r.holdings, n-1, n-r.m, want)
		}
	}
	return nil
}

func e3Availability() error {
	const n, trials, seed = 7, 300, 42
	ps := []float64{0.05, 0.10, 0.20, 0.30}
	fmt.Printf("E3 — m-of-n signature availability, measured (closed form), n = %d, %d trials per cell (§3.3)\n", n, trials)
	fmt.Println("      p=0.05         p=0.10         p=0.20         p=0.30         sub-shares  per domain")
	key, err := sharedrsa.DealerSplit(512, n, seeded(3))
	if err != nil {
		return err
	}
	var cells []availCell
	var shares []shareRow
	for m := n; m >= 2; m-- {
		ts, err := sharedrsa.Reshare(key.Public, key.Shares, m, seeded(int64(m)))
		if err != nil {
			return err
		}
		fmt.Printf("m=%d", m)
		for _, p := range ps {
			rate, err := availability(ts, p, trials, seed)
			if err != nil {
				return err
			}
			cells = append(cells, availCell{m: m, p: p, measured: rate})
			fmt.Printf("   %.3f (%.3f)", rate, closedForm(n, m, p))
		}
		shares = append(shares, shareRow{m: m, subsets: ts.SubsetCount(), holdings: ts.HoldingsOf(1)})
		fmt.Printf("   %10d  %10d\n", ts.SubsetCount(), ts.HoldingsOf(1))
	}
	fmt.Println("shape: n-of-n (m=7) collapses under outages; lowering m restores availability")
	fmt.Println("at the cost of full consensus and of C(n, n−m+1) sub-shares.")
	if err := checkAvailability(n, cells); err != nil {
		return err
	}
	return checked(checkShares(n, shares), fmt.Sprintf("|measured − closed form| ≤ %.2f, monotone in m, sub-shares = C(n, n−m+1)", availTolerance))
}

// ---- E4: trust liability, Case I vs Case II ----

type forgeryRow struct {
	k             int
	caseI, caseII bool
}

// checkForgery: Case I falls to one compromised domain, Case II only to
// all n.
func checkForgery(n int, rows []forgeryRow) error {
	for _, r := range rows {
		if r.caseI != (r.k >= 1) || r.caseII != (r.k == n) {
			return fmt.Errorf("k=%d of %d: Case I forged=%v, Case II forged=%v; want %v, %v", r.k, n, r.caseI, r.caseII, r.k >= 1, r.k == n)
		}
	}
	return nil
}

// forges reports whether signer issues a threshold certificate admitting
// Mallory that verifies under the AA key pk.
func forges(signer pki.Signer, pk sharedrsa.PublicKey, at clock.Time) bool {
	if signer == nil {
		return false
	}
	cert, err := pki.IssueThresholdAttribute(pki.ThresholdAttribute{
		Issuer: "AA", IssuedAt: at, Group: "G_write", M: 1,
		Subjects:  []pki.BoundSubject{{Name: "Mallory", KeyID: "km"}},
		NotBefore: 0, NotAfter: at + 1000,
	}, signer)
	return err == nil && pki.VerifyThresholdAttribute(cert, pk, at) == nil
}

func e4TrustLiability() error {
	const n = 3
	fmt.Printf("E4 — forging a threshold certificate after compromising k of %d domains (§2.2)\n", n)
	clk := clock.New(100)
	caseI, err := authority.EstablishCaseI("AA", []string{"pw1", "pw2", "pw3"}, 512, clk)
	if err != nil {
		return err
	}
	caseII, err := authority.EstablishWithDealer("AA", []string{"D1", "D2", "D3"}, 512, clk)
	if err != nil {
		return err
	}
	// One administrator with maintenance access exposes the lock box key.
	insider := caseI.Compromise()
	var leaked pki.Signer
	pk := caseII.AA.Public()
	var stolen []sharedrsa.Share // exponent shares of the compromised Case II domains
	fmt.Println("k    Case I (lock box)    Case II (shared key)")
	var rows []forgeryRow
	for k := 0; k <= n; k++ {
		if k >= 1 {
			leaked = insider
			stolen = append(stolen, caseII.Domains[k-1].Share())
		}
		r := forgeryRow{k: k, caseI: forges(leaked, caseI.Public(), clk.Now()), caseII: forges(pki.NewJointSigner(pk, stolen), pk, clk.Now())}
		fmt.Printf("%d    %-20v %v\n", r.k, r.caseI, r.caseII)
		rows = append(rows, r)
	}
	fmt.Println("shape: Case I is a single point of trust failure; Case II needs every domain.")
	return checked(checkForgery(n, rows), "Case I forges at k ≥ 1, Case II only at k = n")
}

// ---- E8: collusion privacy of the n-of-n sharing ----

type collusionRow struct {
	k                  int
	canSign, canFactor bool
}

// checkCollusion: only all n views together sign or factor N.
func checkCollusion(n int, rows []collusionRow) error {
	for _, r := range rows {
		if r.canSign != (r.k == n) || r.canFactor != (r.k == n) {
			return fmt.Errorf("%d of %d colluders: sign=%v factor=%v; only all %d may", r.k, n, r.canSign, r.canFactor, n)
		}
	}
	return nil
}

func e8Collusion() error {
	const n = 5
	fmt.Printf("E8 — colluding domains pooling their complete secret views, n = %d (§3.1, §6)\n", n)
	res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: n, Bits: 128, Rand: seeded(8)})
	if err != nil {
		return err
	}
	msg := []byte("collusion probe")
	fmt.Println("colluders   can sign   can factor N")
	var rows []collusionRow
	for k := 1; k <= n; k++ {
		r := collusionRow{k: k, canSign: canSign(res, msg, k), canFactor: canFactor(res, k)}
		fmt.Printf("%d/%d         %-10v %v\n", k, n, r.canSign, r.canFactor)
		rows = append(rows, r)
	}
	fmt.Println("shape: recovering the private key requires every domain's view.")
	return checked(checkCollusion(n, rows), "only all n views sign or factor N")
}

// canSign pools the first k d-shares into a private exponent and tries
// the bounded trial correction, as the collusion test in
// internal/sharedrsa does.
func canSign(res *sharedrsa.Result, msg []byte, k int) bool {
	d := new(big.Int)
	for _, v := range res.Views[:k] {
		d.Add(d, v.DShare)
	}
	h := sharedrsa.HashMessage(msg, res.Public)
	for j := 0; j <= len(res.Views); j++ {
		exp := new(big.Int).Add(d, big.NewInt(int64(j)))
		s := new(big.Int).Exp(h, exp, res.Public.N)
		if sharedrsa.Verify(msg, res.Public, sharedrsa.Signature{S: s}) == nil {
			return true
		}
	}
	return false
}

// canFactor pools the first k p-shares; only the full sum divides N.
func canFactor(res *sharedrsa.Result, k int) bool {
	p := new(big.Int)
	for _, v := range res.Views[:k] {
		p.Add(p, v.PShare)
	}
	if p.Cmp(big.NewInt(1)) <= 0 {
		return false
	}
	return new(big.Int).Mod(res.Public.N, p).Sign() == 0
}
