package stats

import "math"

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// StdNormal is the standard normal distribution N(0, 1).
var StdNormal = Normal{Mu: 0, Sigma: 1}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Quantile returns the value x with CDF(x) = p. It panics for p outside
// (0, 1) boundaries; p of exactly 0 or 1 returns ∓Inf.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*stdNormalQuantile(p)
}

// Rand draws one variate using the supplied generator.
func (n Normal) Rand(r *RNG) float64 {
	return n.Mu + n.Sigma*r.NormFloat64()
}

// stdNormalQuantile implements the Acklam/Wichura-grade rational
// approximation (AS 241-style, |relative error| < 1.15e-9) followed by one
// Halley refinement step that brings it to near machine precision.
func stdNormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for the central and tail rational approximations
	// (Peter Acklam's algorithm).
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley step: e = CDF(x) − p, refine x.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// FitNormal returns the maximum-likelihood normal fit to xs (sample mean and
// the population standard deviation, i.e. dividing by len(xs)). It panics on
// an empty slice.
func FitNormal(xs []float64) Normal {
	if len(xs) == 0 {
		panic("stats: FitNormal on empty data")
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(ss / float64(len(xs)))}
}
