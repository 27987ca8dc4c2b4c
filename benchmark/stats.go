package main

import (
	"math"
	"sort"
	"time"
)

// quantile interpolates linearly between the order statistics of
// sorted, which must not be empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; NaN when v is empty, so a span that never ran is
// reported missing instead of as zero.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(v), 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is what the driver uses for run-to-run spread. v needs two
// values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}
