package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (the mean of the middle two when the
// count is even), 0 for none. It sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vals, 0 for none.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is
// what the benchmark's acceptance check uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, clamped to the sample, interpolated.
		j := k * (n + 1) / 4
		rem := k * (n + 1) % 4
		if j < 1 {
			j, rem = 1, 0
		}
		if j > n-1 {
			j, rem = n-1, 4
		}
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs(q3-q1) / math.Abs(m)
}

// highPercentile reports the highest of the usual tail percentiles that
// still has at least ten samples beyond it, and its value: a p99 of 200
// samples rests on two of them and is not worth printing.
func highPercentile(vals []float64) (p float64, v float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	p = 50
	for _, c := range []float64{75, 90, 95, 99, 99.9, 99.99} {
		if float64(n)*(1-c/100) >= 10 {
			p = c
		}
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return p, s[idx]
}
