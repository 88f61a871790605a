package sharedrsa

import (
	"fmt"
	"math/big"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// PartialSign computes one party's contribution S_i = H(M)^{d_i} mod N
// (Section 3.2: "each of the co-signers then apply their corresponding
// private key shares d_i to compute S_i = M^{d_i} mod N"). It is
// partials' one-share case.
func PartialSign(msg []byte, pk PublicKey, sh Share) (PartialSignature, error) {
	ps, err := partials(msg, pk, []Share{sh})
	if err != nil {
		return PartialSignature{}, err
	}
	return ps[0], nil
}

// partials computes S_i = H(M)^{d_i} mod N for every share, in share
// order: the package's one way to compute a partial signature
// (PartialSign, signJointly, ThresholdShares.QuorumSign). All partials
// of one signature raise the same base h = H(M), so h's powers are
// computed once, into a powerTable, and each share's exponent is then
// evaluated from the table (powerTable.pow): one modular product per
// w-bit digit and 2·(2^w − 1) to combine, instead of a squaring per bit
// and a product per window for every share.
//
// The table is built on the caller's goroutine; the evaluations, each
// independent of the others, then run on at most GOMAXPROCS goroutines,
// the caller's among them, worker j taking shares j, j+workers, ….
// When shares fail, the error of the lowest-index one is returned.
//
// A negative share (Redistribute and the floor-division sharing deal
// them) is evaluated as |d_i| and the partial, which is public, is
// inverted mod N.
func partials(msg []byte, pk PublicKey, shares []Share) ([]PartialSignature, error) {
	if pk.N == nil || pk.N.Bit(0) == 0 || pk.N.BitLen() < 2 {
		return nil, fmt.Errorf("sharedrsa: partial sign: modulus is not odd and above 1: %w", ErrBadSignature)
	}
	return raise(hashToModulus(msg, pk.N), pk.N, shares)
}

// raise is partials for the base h in [0, n), n odd and above 1.
func raise(h, n *big.Int, shares []Share) ([]PartialSignature, error) {
	out := make([]PartialSignature, len(shares))
	errs := make([]error, len(shares))
	longest := 0
	for i, sh := range shares {
		if sh.D == nil {
			errs[i] = fmt.Errorf("sharedrsa: share %d has no exponent", sh.Index)
			continue
		}
		longest = max(longest, sh.D.BitLen())
	}
	pt := newPowerTable(h, n, longest)
	workers := min(runtime.GOMAXPROCS(0), len(shares))
	eval := func(worker int) {
		sc := pt.scratch()
		for i := worker; i < len(shares); i += workers {
			if errs[i] != nil {
				continue
			}
			v := pt.pow(shares[i].D, sc)
			if shares[i].D.Sign() < 0 && v.ModInverse(v, n) == nil {
				// gcd(H(M), N) > 1: astronomically unlikely for a hash;
				// would incidentally factor N.
				errs[i] = fmt.Errorf("sharedrsa: partial sign (party %d): hash shares a factor with the modulus", shares[i].Index)
				continue
			}
			out[i] = PartialSignature{Index: shares[i].Index, V: v}
		}
	}
	var wg sync.WaitGroup
	for worker := 1; worker < workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval(worker)
		}()
	}
	eval(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// powerTable holds the powers T[i] = h^(2^(w·i)) of one base h in
// [0, n), i < K, for exponents of up to w·K bits, in the Montgomery
// domain (each times R = 2^(W·len(n)) mod n), with R mod n, the
// domain's one. It lives for one signature: a table is a function of
// H(M), which no two signatures share, so nothing is kept across them.
type powerTable struct {
	n   *big.Int
	nw  []big.Word
	k0  big.Word
	w   uint
	t   []big.Word // K entries of len(n) words, T[i] at [i·len(n), (i+1)·len(n))
	one []big.Word
}

// windowBits returns the window w that minimises pow's product count for
// exponents of up to bits bits, ⌈bits/w⌉ + 2·(2^w − 1): 4 at 512 to 640
// bits (158 products at 512, against 165 at w = 5), 5 at 1024, 6 at 2048.
func windowBits(bits int) uint {
	best, cost := uint(1), -1
	for w := 1; w <= 8; w++ {
		if c := (bits+w-1)/w + 2*(1<<w-1); cost < 0 || c < cost {
			best, cost = uint(w), c
		}
	}
	return best
}

// newPowerTable builds the table of h's powers for exponents of up to
// bits bits: h enters the domain as REDC(h·R²), and each entry is the
// previous one squared w times, so the table costs about bits squarings,
// what one exponentiation's squarings cost. n must be odd and above 1,
// and h in [0, n).
func newPowerTable(h, n *big.Int, bits int) *powerTable {
	nw := n.Bits()
	k := len(nw)
	w := windowBits(bits)
	entries := (bits + int(w) - 1) / int(w)
	pt := &powerTable{n: n, nw: nw, k0: montInverse(nw[0]), w: w}
	buf := make([]big.Word, (entries+1)*k+4*k)
	pt.one, pt.t = buf[:k:k], buf[k:(entries+1)*k:(entries+1)*k]
	// Two 2k-word product buffers the squarings alternate between (REDC
	// leaves its result in the upper half).
	t, u := buf[(entries+1)*k:(entries+3)*k], buf[(entries+3)*k:]
	rr := montR2(n)
	copy(t, rr)
	clear(t[k:])
	copy(pt.one, redc(t, nw, pt.k0))
	if entries == 0 {
		return pt
	}
	t0 := pt.t[:k]
	copy(t0, h.Bits())
	mulVV(t, t0, rr)
	copy(t0, redc(t, nw, pt.k0))
	for i := 1; i < entries; i++ {
		acc := pt.t[(i-1)*k : i*k]
		for range w {
			t, u = u, t
			sqrVV(t, acc)
			acc = redc(t, nw, pt.k0)
		}
		copy(pt.t[i*k:(i+1)*k], acc)
	}
	return pt
}

// scratch returns the words one pow needs: 2^w buckets, two
// accumulators and a 2k-word product buffer.
func (pt *powerTable) scratch() []big.Word {
	return make([]big.Word, (1<<pt.w+4)*len(pt.nw))
}

// pow returns h^|e| mod n by Yao's bucket method (Yao 1976; Brickell,
// Gordon, McCurley and Wilson, EUROCRYPT '92): with |e| = Σ e_i·2^(w·i),
// every T[i] is multiplied into bucket[e_i], and then
// Π_j bucket[j]^j = h^|e| is formed by two running products from j =
// 2^w − 1 down to 1. |e| has at most w·K bits; sc is from scratch.
//
// The schedule is fixed by K and w: every digit costs one product, a
// zero digit's going into bucket 0, which is discarded, and the combine
// always costs 2·(2^w − 1), so the count of products never depends on
// the share's digits. Which bucket a product lands in does, through the
// addresses it touches, as which table entry math/big's Exp multiplies
// by depends on each 4-bit window of its exponent: the posture is no
// weaker than the math/big exponentiation it replaced, and no stronger.
func (pt *powerTable) pow(e *big.Int, sc []big.Word) *big.Int {
	k := len(pt.nw)
	nb := 1 << pt.w
	buckets := sc[: nb*k : nb*k]
	a, b := sc[nb*k:(nb+1)*k:(nb+1)*k], sc[(nb+1)*k:(nb+2)*k:(nb+2)*k]
	t := sc[(nb+2)*k : (nb+4)*k]
	for j := range nb {
		copy(buckets[j*k:(j+1)*k], pt.one)
	}
	ew := e.Bits()
	for i := range len(pt.t) / k {
		d := digit(ew, uint(i)*pt.w, pt.w)
		bk := buckets[d*k : (d+1)*k]
		mulVV(t, bk, pt.t[i*k:(i+1)*k])
		copy(bk, redc(t, pt.nw, pt.k0))
	}
	copy(a, pt.one)
	copy(b, pt.one)
	for j := nb - 1; j >= 1; j-- {
		mulVV(t, a, buckets[j*k:(j+1)*k])
		copy(a, redc(t, pt.nw, pt.k0))
		mulVV(t, b, a)
		copy(b, redc(t, pt.nw, pt.k0))
	}
	// Leave the domain: REDC(b) = b·R⁻¹.
	copy(t, b)
	clear(t[k:])
	return new(big.Int).SetBits(slices.Clone(redc(t, pt.nw, pt.k0)))
}

// digit returns bits [p, p+w) of the little-endian word vector x, zero
// past its end; w < W.
func digit(x []big.Word, p, w uint) int {
	i, s := p/bits.UintSize, p%bits.UintSize
	if i >= uint(len(x)) {
		return 0
	}
	d := uint(x[i]) >> s
	if s+w > bits.UintSize && i+1 < uint(len(x)) {
		d |= uint(x[i+1]) << (bits.UintSize - s)
	}
	return int(d & (1<<w - 1))
}
