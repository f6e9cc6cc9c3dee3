package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1 denominator) sample variance.
// It panics if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stats: Variance needs at least two values")
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// MeanStd returns the mean and unbiased standard deviation in one pass
// (Welford's algorithm). For len(xs) < 2 the returned deviation is 0.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		panic("stats: MeanStd of empty slice")
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.MeanStd()
}

// Welford is a running mean and sum of squared deviations (Welford's
// algorithm): after adding x_1 … x_n in order it holds what MeanStd
// computes from them, bit for bit, because MeanStd is this loop. Its
// step is the one implementation of the update, so wherever the
// compiler fuses it into a fused multiply-add it does so for every
// caller alike. The zero value is empty.
type Welford struct {
	n        int
	mean, m2 float64
}

// Add folds in the next value.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// MeanStd returns the mean and unbiased standard deviation of the
// values added; the deviation is 0 for fewer than two, and the mean 0
// for none.
func (w *Welford) MeanStd() (mean, std float64) {
	if w.n < 2 {
		return w.mean, 0
	}
	return w.mean, math.Sqrt(w.m2 / float64(w.n-1))
}

// MinMax returns both extremes of xs in a single pass.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Summary holds one-pass descriptive statistics of a data set.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // unbiased sample standard deviation (0 when N < 2)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	mean, std := MeanStd(xs)
	min, max := MinMax(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var med float64
	n := len(sorted)
	if n%2 == 1 {
		med = sorted[n/2]
	} else {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return Summary{N: n, Mean: mean, Std: std, Min: min, Max: max, Median: med}
}
