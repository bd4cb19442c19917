package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it.
const minBeyond = 10

func floats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median is Python's statistics.median; 0 for no samples.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(v, n=4) with its default
// exclusive method. It needs at least two samples.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailQuantile is the highest of p50, p90, p99, p99.9, ... that leaves at
// least minBeyond of n samples above it.
func tailQuantile(n int) float64 {
	q := 0.5
	for beyond := 10; n >= minBeyond*beyond; beyond *= 10 {
		q = 1 - 1/float64(beyond)
	}
	return q
}

// quantile is the nearest-rank q-quantile of v; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[nearestRank(q, len(s))-1]
}

// tail is the nearest-rank tailQuantile of v.
func tail(v []float64) float64 { return quantile(v, tailQuantile(len(v))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix folds v into the running hash h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}
