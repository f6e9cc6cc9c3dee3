package stats

import (
	"math"
)

// LogGamma returns the natural logarithm of the absolute value of the gamma
// function at x. It wraps math.Lgamma, discarding the sign, which is always
// +1 for the positive arguments used in this package.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// maxBetaIter bounds the continued-fraction iterations in the incomplete
// beta evaluation.
const maxBetaIter = 300

// betaEps is the relative tolerance of the continued fraction.
const betaEps = 3e-15

// RegIncBeta computes the regularized incomplete beta function
// I_x(a, b) = B(x; a, b) / B(a, b) for a, b > 0 and x in [0, 1], using the
// continued-fraction expansion with the symmetry transformation
// I_x(a,b) = 1 − I_{1−x}(b,a) to keep the fraction convergent.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lnBeta := LogGamma(a) + LogGamma(b) - LogGamma(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lnBeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxBetaIter; m++ {
		m2 := 2 * m
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < betaEps {
			break
		}
	}
	return h
}
