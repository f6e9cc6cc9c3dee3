package stats

import "math"

// ChiSquare is the χ² distribution with K degrees of freedom.
type ChiSquare struct {
	K float64
}

// PDF returns the density at x.
func (c ChiSquare) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if c.K < 2 {
			return math.Inf(1)
		}
		if c.K == 2 {
			return 0.5
		}
		return 0
	}
	k2 := c.K / 2
	return math.Exp((k2-1)*math.Log(x) - x/2 - k2*math.Ln2 - LogGamma(k2))
}

// CDF returns P(X ≤ x) = P(k/2, x/2).
func (c ChiSquare) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegIncGammaLower(c.K/2, x/2)
}

// Quantile returns the x with CDF(x) = p, via bracketed bisection/Newton
// on the CDF (the Wilson–Hilferty cube approximation seeds the search).
func (c ChiSquare) Quantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	// Wilson–Hilferty starting point.
	z := stdNormalQuantile(p)
	t := 1 - 2/(9*c.K) + z*math.Sqrt(2/(9*c.K))
	x := c.K * t * t * t
	if x <= 0 {
		x = c.K / 2
	}
	lo, hi := 0.0, math.Max(4*x, c.K+40)
	for c.CDF(hi) < p {
		lo = hi
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		f := c.CDF(x) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		d := c.PDF(x)
		var next float64
		if d > 0 {
			next = x - f/d
		}
		if d <= 0 || next <= lo || next >= hi || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= 1e-12*(1+math.Abs(x)) {
			return next
		}
		x = next
	}
	return x
}

// VarianceCI returns a two-sided confidence interval for a population
// variance given the unbiased sample variance s2 from n observations,
// using the χ² pivot: [(n−1)s²/χ²_{(1+l)/2}, (n−1)s²/χ²_{(1−l)/2}]. The
// two quantiles are memoised.
func VarianceCI(s2 float64, n int, confidence float64) (lo, hi float64) {
	if n < 2 {
		panic("stats: VarianceCI needs n ≥ 2")
	}
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0,1)")
	}
	df := float64(n - 1)
	upper := memoQuantile(memoChiSquare, (1+confidence)/2, df)
	lower := memoQuantile(memoChiSquare, (1-confidence)/2, df)
	return df * s2 / upper, df * s2 / lower
}
