package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports a timing at it.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place), or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// tailPct returns the highest ladder percentile that has at least
// minBeyond of n samples beyond it, or 0 when not even the median has.
func tailPct(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// dist summarizes one class of timings: the count and the highest
// percentile the count supports.
type dist struct {
	N       int
	TailPct float64
	Tail    float64
	xs      []float64 // sorted
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), xs: s, TailPct: tailPct(len(s))}
	if d.TailPct > 0 {
		d.Tail = percentile(s, d.TailPct)
	}
	return d
}

// at returns the p-th percentile when the ≥minBeyond rule supports
// it, else 0.
func (d dist) at(p float64) float64 {
	if d.N == 0 || beyond(d.N, p) < minBeyond {
		return 0
	}
	return percentile(d.xs, p)
}
