package stats

import (
	"math"
	"sort"
)

// ADStatistic returns the Anderson–Darling statistic A² between the sample
// xs and the fully-specified continuous CDF cdf. Compared to
// Kolmogorov–Smirnov, A² weights the tails heavily, which is the region
// the maximum-power application cares about (Figure 1's "region near the
// maximum power").
func ADStatistic(xs []float64, cdf func(float64) float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: ADStatistic on empty data")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const tiny = 1e-300
	var sum float64
	for i, x := range s {
		u := cdf(x)
		if u < tiny {
			u = tiny
		}
		if u > 1-1e-15 {
			u = 1 - 1e-15
		}
		// Mirror term uses the complementary order statistic.
		v := cdf(s[n-1-i])
		if v < tiny {
			v = tiny
		}
		if v > 1-1e-15 {
			v = 1 - 1e-15
		}
		sum += float64(2*i+1) * (math.Log(u) + math.Log(1-v))
	}
	return -float64(n) - sum/float64(n)
}
