package main

import (
	"sort"
	"time"
)

// quantile returns the exact q-quantile (nearest rank) of an ascending
// slice; 0 when it is empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy leaves the caller's sample order (which the stall and trace
// analyses index by operation) untouched.
func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianInt(v []int64) int64 { return quantile(sortedCopy(v), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// timeEach runs fn n times, timing every call, and returns the median.
func timeEach(n int, fn func()) time.Duration {
	d := make([]int64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = int64(time.Since(t0))
	}
	return time.Duration(medianInt(d))
}

// timeBatched is timeEach for calls too short to time one by one: each
// of the n samples is the mean of batch back-to-back calls.
func timeBatched(n, batch int, fn func()) time.Duration {
	return timeEach(n, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	}) / time.Duration(batch)
}
