package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile. With fewer the percentile is absent rather than a number:
// the top handful of samples of a short run is noise, not a tail.
const tailBeyond = 10

// tail returns the nearest-rank p-quantile of samples (0 < p < 1) and
// whether it is reportable, i.e. at least tailBeyond samples rank above
// it. samples is not modified.
func tail(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < tailBeyond {
		return 0, false
	}
	return sorted(samples)[rank-1], true
}

// median is the middle sample, or the mean of the two middle ones, like
// Python's statistics.median. It is NaN for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of at least two samples
// by the method of Python's statistics.quantiles(data, n=4) (the default
// "exclusive" method), so -repeat reports the same spreads as Python
// does from the same numbers.
func quartiles(samples []float64) (q1, q3 float64, ok bool) {
	ld := len(samples)
	if ld < 2 {
		return 0, 0, false
	}
	s := sorted(samples)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), true
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
