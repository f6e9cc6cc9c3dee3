package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	n := StdNormal
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := n.CDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2.5}
	if err := quick.Check(func(raw uint32) bool {
		p := float64(raw%999998+1) / 1e6 // p in (0, 1)
		x := n.Quantile(p)
		return almostEqual(n.CDF(x), p, 1e-9)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.95, 1.6448536269514722},
		{0.05, -1.6448536269514722},
	}
	for _, c := range cases {
		if got := StdNormal.Quantile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileExtremes(t *testing.T) {
	if !math.IsInf(StdNormal.Quantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormal.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	// Deep tails must still round-trip reasonably.
	for _, p := range []float64{1e-10, 1e-6, 1 - 1e-6} {
		x := StdNormal.Quantile(p)
		if got := StdNormal.CDF(x); !almostEqual(got, p, 1e-6) {
			t.Errorf("tail round trip p=%v: CDF(Quantile)= %v", p, got)
		}
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integral of the PDF from -8 to x should match CDF(x).
	n := StdNormal
	for _, x := range []float64{-1, 0, 0.5, 2} {
		const steps = 20000
		lo := -8.0
		h := (x - lo) / steps
		sum := (n.PDF(lo) + n.PDF(x)) / 2
		for i := 1; i < steps; i++ {
			sum += n.PDF(lo + float64(i)*h)
		}
		integral := sum * h
		if !almostEqual(integral, n.CDF(x), 1e-6) {
			t.Errorf("∫pdf to %v = %v, want %v", x, integral, n.CDF(x))
		}
	}
}

func TestFitNormalRecoversParameters(t *testing.T) {
	r := NewRNG(99)
	truth := Normal{Mu: -4, Sigma: 3}
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = truth.Rand(r)
	}
	fit := FitNormal(xs)
	if math.Abs(fit.Mu-truth.Mu) > 0.05 {
		t.Errorf("fitted mu = %v, want ≈ %v", fit.Mu, truth.Mu)
	}
	if math.Abs(fit.Sigma-truth.Sigma) > 0.05 {
		t.Errorf("fitted sigma = %v, want ≈ %v", fit.Sigma, truth.Sigma)
	}
}

func TestNormalRandMatchesCDF(t *testing.T) {
	r := NewRNG(123)
	n := Normal{Mu: 1, Sigma: 2}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = n.Rand(r)
	}
	d := KSStatistic(xs, n.CDF)
	if p := KSPValue(d, len(xs)); p < 0.001 {
		t.Errorf("KS test rejects normal sampler: D=%v p=%v", d, p)
	}
}
