package stats

import "math"

// StudentT is Student's t distribution with Nu degrees of freedom.
type StudentT struct {
	Nu float64
}

// PDF returns the probability density at x.
func (t StudentT) PDF(x float64) float64 {
	nu := t.Nu
	lg := LogGamma((nu+1)/2) - LogGamma(nu/2) - 0.5*math.Log(nu*math.Pi)
	return math.Exp(lg - (nu+1)/2*math.Log(1+x*x/nu))
}

// CDF returns P(T <= x) via the regularized incomplete beta function.
func (t StudentT) CDF(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0.5
	}
	nu := t.Nu
	ib := RegIncBeta(nu/2, 0.5, nu/(nu+x*x))
	if x > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// Quantile returns the value x with CDF(x) = p. It uses the normal quantile
// (with a Cornish–Fisher-style correction) as a starting point and refines
// with safeguarded Newton iterations on the CDF.
func (t StudentT) Quantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	}
	// Symmetry: solve for p > 0.5 and negate if needed.
	if p < 0.5 {
		return -t.Quantile(1 - p)
	}

	nu := t.Nu
	// Initial guess: normal quantile expanded with the first Cornish–Fisher
	// term; good to a few percent even for small nu.
	z := stdNormalQuantile(p)
	g1 := (z*z*z + z) / 4
	x := z + g1/nu
	if nu <= 2 {
		// Direct closed forms exist for nu = 1, 2; use them as guesses.
		if nu == 1 {
			x = math.Tan(math.Pi * (p - 0.5))
		} else {
			a := 2*p - 1
			x = a * math.Sqrt(2/(1-a*a))
		}
	}

	// Bracket the root then apply Newton with bisection safeguard.
	lo, hi := 0.0, math.Max(4*math.Abs(x)+10, 20)
	for t.CDF(hi) < p {
		lo = hi
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	if x < lo || x > hi {
		x = (lo + hi) / 2
	}
	for i := 0; i < 100; i++ {
		f := t.CDF(x) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		df := t.PDF(x)
		var next float64
		if df > 0 {
			next = x - f/df
		}
		if df <= 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= 1e-13*(1+math.Abs(x)) {
			return next
		}
		x = next
	}
	return x
}

// TwoSidedT returns t_{l, nu} such that P(−t ≤ T ≤ t) = l for a Student-t
// variable with nu degrees of freedom. This is the factor used in the
// paper's Eqn. (3.8) confidence interval. The quantile is memoised.
func TwoSidedT(l float64, nu float64) float64 {
	if l <= 0 || l >= 1 {
		panic("stats: confidence level must be in (0,1)")
	}
	if nu <= 0 {
		panic("stats: degrees of freedom must be positive")
	}
	return memoQuantile((1+l)/2, nu)
}
