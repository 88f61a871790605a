package main

import (
	"math/bits"
	"time"
)

// The speed reference. The machines this benchmark runs on are shared.
// On the 2-core box it was written on, identical code runs up to twice
// as slowly for spells of 50 ms to minutes as neighbours come and go;
// twenty runs of one binary spread by 17–27 % (interquartile, as a share
// of the median) in every timing, and no statistic over the samples of a
// 20-second run brought that below 12 %. So the driver reads a fixed
// kernel for 1 ms before and after every slice of decisions, with the
// callers stopped, and reports every timing at reference speed: divided by
//
//	1 + refShare × (reading / refNominalNs − 1)
//
// where a slice's reading is the mean of the two around it, and a
// mutation's or a set-up's the mean of all readings of its round (no
// reading taken beside a mutation, on the second core, while decisions
// run on the first, measured anything but the benchmark's own
// contention). On a quiet reference box the readings equal refNominalNs
// and the figures are plain wall-clock figures. The same twenty runs
// then spread by 2–7 % on the decision timings and 3–13 % on the
// mutations'.
//
// refShare is below one because the kernel, being pure arithmetic,
// suffers a busy sibling hyperthread more than code that also waits for
// memory or the disk, and because a reading samples the machine for 1 ms
// on each side of 10–20 ms of work: of the shares tried on those runs,
// three quarters gave the least spread on the decision timings of every
// workload; the mutations' optimum lay between a half and three quarters.
//
// refKernel is that kernel: the multiply-accumulate over 512-bit
// operands that one RSA verification consists of, written out here with
// no call into any package, no allocation and 192 bytes of state, so
// that no change to the repository moves it. It must stay as it is:
// changing it, or the two constants, rebases every timing.
const (
	// refNominalNs is a reading on the quiet reference box, in ns per
	// step.
	refNominalNs = 94.0
	refShare     = 0.75
)

// adjust reports a timing measured between readings of mean speed (ns
// per step) at reference speed.
func adjust(t, speed float64) float64 {
	return t / (1 + refShare*(speed/refNominalNs-1))
}

type refKernel struct {
	a, b [8]uint64
	acc  [16]uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{}
	for i := range k.a {
		k.a[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
		k.b[i] = 0xc2b2ae3d27d4eb4f * uint64(i+3)
	}
	return k
}

// step multiplies a by b into acc and folds the product back into the
// operands, so that every step depends on the one before.
func (k *refKernel) step() {
	for i := range k.acc {
		k.acc[i] = 0
	}
	for i := 0; i < 8; i++ {
		var carry uint64
		for j := 0; j < 8; j++ {
			hi, lo := bits.Mul64(k.a[i], k.b[j])
			var c uint64
			lo, c = bits.Add64(lo, k.acc[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			k.acc[i+j] = lo
			carry = hi
		}
		k.acc[i+8] = carry
	}
	for i := 0; i < 8; i++ {
		k.a[i] ^= k.acc[i+8]
		k.b[i] += k.acc[i] | 1
	}
}

// refSteps sizes one sample: about 1 ms.
const refSteps = 10000

// sample runs refSteps steps and returns the time per step in ns.
func (k *refKernel) sample() float64 {
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		k.step()
	}
	return float64(time.Since(t0)) / refSteps
}
