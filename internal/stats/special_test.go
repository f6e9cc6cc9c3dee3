package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1, 1) = x (uniform distribution).
		{1, 1, 0.25, 0.25},
		{1, 1, 0.75, 0.75},
		// I_x(1, b) = 1 − (1−x)^b.
		{1, 3, 0.5, 1 - math.Pow(0.5, 3)},
		// I_x(a, 1) = x^a.
		{2, 1, 0.3, 0.09},
		// Symmetry point: I_{1/2}(a, a) = 1/2.
		{5, 5, 0.5, 0.5},
		{0.5, 0.5, 0.5, 0.5},
		// I_{1/2}(0.5, 0.5) relates to arcsin: I_x(1/2,1/2) = (2/π)·asin(√x).
		{0.5, 0.5, 0.25, 2 / math.Pi * math.Asin(0.5)},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	if got := RegIncBeta(-1, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("negative a should yield NaN, got %v", got)
	}
}

func TestRegIncBetaMonotoneAndSymmetric(t *testing.T) {
	if err := quick.Check(func(aRaw, bRaw, xRaw uint16) bool {
		a := 0.5 + float64(aRaw%100)/10
		b := 0.5 + float64(bRaw%100)/10
		x := float64(xRaw%999+1) / 1000
		v := RegIncBeta(a, b, x)
		if v < 0 || v > 1 {
			return false
		}
		// Symmetry identity: I_x(a,b) + I_{1-x}(b,a) = 1.
		if !almostEqual(v+RegIncBeta(b, a, 1-x), 1, 1e-10) {
			return false
		}
		// Monotone in x.
		x2 := x + (1-x)/2
		return RegIncBeta(a, b, x2) >= v-1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogGamma(t *testing.T) {
	// Γ(5) = 24, Γ(1/2) = √π.
	if got := LogGamma(5); !almostEqual(got, math.Log(24), 1e-14) {
		t.Errorf("LogGamma(5) = %v", got)
	}
	if got := LogGamma(0.5); !almostEqual(got, 0.5*math.Log(math.Pi), 1e-14) {
		t.Errorf("LogGamma(0.5) = %v", got)
	}
}
