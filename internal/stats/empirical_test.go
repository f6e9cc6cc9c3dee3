package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantileDefinition(t *testing.T) {
	// Quantile(q) must be the smallest sample value t with CDF(t) >= q.
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	cases := []struct{ q, want float64 }{
		{0.2, 10}, {0.2000001, 20}, {0.5, 30}, {0.8, 40}, {1, 50}, {0, 10}, {-1, 10}, {2, 50},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDFQuantileCDFGalois(t *testing.T) {
	r := NewRNG(41)
	xs := make([]float64, 137)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	e := NewECDF(xs)
	if err := quick.Check(func(raw uint16) bool {
		q := float64(raw%1000+1) / 1000
		x := e.Quantile(q)
		// Galois property: CDF(x) >= q, and any strictly smaller sample
		// value has CDF < q.
		return e.CDF(x) >= q-1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECDFMatchesUniform(t *testing.T) {
	r := NewRNG(43)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	e := NewECDF(xs)
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		if got := e.CDF(x); math.Abs(got-x) > 0.01 {
			t.Errorf("uniform ECDF(%v) = %v", x, got)
		}
	}
}

func TestECDFPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewECDF(nil) did not panic")
		}
	}()
	NewECDF(nil)
}

func TestKSStatisticSelf(t *testing.T) {
	// KS distance of a sample against its own ECDF-like CDF must be small;
	// against a shifted CDF it must be large.
	r := NewRNG(53)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	uniform := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	d := KSStatistic(xs, uniform)
	if d > 0.03 {
		t.Errorf("KS distance vs true CDF = %v", d)
	}
	if p := KSPValue(d, len(xs)); p < 0.01 {
		t.Errorf("KS p-value vs true CDF = %v", p)
	}
	shifted := func(x float64) float64 { return uniform(x - 0.2) }
	if d2 := KSStatistic(xs, shifted); d2 < 0.15 {
		t.Errorf("KS distance vs shifted CDF = %v, want large", d2)
	}
}

func TestKSPValueMonotone(t *testing.T) {
	// Larger distances must never yield larger p-values.
	prev := 1.0
	for d := 0.0; d <= 1.0; d += 0.01 {
		p := KSPValue(d, 100)
		if p > prev+1e-12 {
			t.Fatalf("KS p-value not monotone at d=%v", d)
		}
		prev = p
	}
	if KSPValue(0, 10) != 1 {
		t.Error("KSPValue(0) != 1")
	}
}
