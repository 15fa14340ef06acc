package main

import (
	"math/rand"
	"sort"
)

// calibKernel is a fixed job with the resource mix of the pipeline's own
// hot loops — hash-map inserts and lookups keyed by int64, a comparison
// sort, a gather through the permutation — and no repository code. Its
// time moves with the host, not with the repository.
func calibKernel(n int) float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	idx := make([]int, n)
	m := make(map[int64]float64, n/2)
	for i := range xs {
		xs[i] = rng.Float64()
		idx[i] = i
		m[int64(rng.Intn(n))] += xs[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	sum := 0.0
	for _, j := range idx {
		sum += xs[j] + m[int64(j)]
	}
	return sum
}

// calibN is the committed size of the calibration kernel and calibRefMs
// what one shot of that size takes on the reference box at its usual speed
// (median of 40 runs over three hours: 67-73 ms). Normalised times are raw
// times scaled by calibRefMs over the shots taken around them, so they read
// as milliseconds at that speed.
const (
	calibN     = 200_000
	calibRefMs = 70
)

// calib takes one calibration shot and remembers its wall time (ms).
func (r *run) calib() {
	r.lastCalib = r.timed("harness.calib", -1, func(int) { calibKernel(r.sz.calibN) })
}

// hostFactor takes the calibration shot that follows a piece of timed work
// and returns what to multiply its raw time by (and divide its rate by) to
// read it at reference speed: calibRefMs over the mean of the shots taken
// just before and just after the work.
func (r *run) hostFactor() float64 {
	before := r.lastCalib
	r.calib()
	return calibRefMs / ((before + r.lastCalib) / 2)
}

// traceOverheadPct compares the spanned calls of name with the unspanned
// ones the traced run interleaves with them.
func (r *run) traceOverheadPct(name string) float64 {
	plain := r.med(name + ".untraced")
	if plain == 0 {
		return 0
	}
	return (r.med(name) - plain) / plain * 100
}
