package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sorted copy
// of the input sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input is copied and sorted;
// it panics on an empty slice.
func NewECDF(xs []float64) *ECDF {
	if len(xs) == 0 {
		panic("stats: NewECDF on empty data")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the number of sample points.
func (e *ECDF) Len() int { return len(e.sorted) }

// CDF returns the fraction of sample points ≤ x.
func (e *ECDF) CDF(x float64) float64 {
	// Index of first element > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value t with CDF(t) ≥ q, matching
// the paper's definition F⁻¹(q) = inf{t : F(t) ≥ q}. q outside (0, 1] is
// clamped: q ≤ 0 returns the sample minimum.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return e.sorted[idx]
}

// Sorted returns the underlying sorted sample (read-only; callers must not
// modify it).
func (e *ECDF) Sorted() []float64 { return e.sorted }
