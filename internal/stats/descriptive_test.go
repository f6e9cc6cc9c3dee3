package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sum of squared deviations = 32, unbiased variance = 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-14) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	r := NewRNG(31)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%100) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
		}
		m, s := MeanStd(xs)
		return almostEqual(m, Mean(xs), 1e-10) && almostEqual(s, math.Sqrt(Variance(xs)), 1e-10)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0, 7, -1}
	lo, hi := MinMax(xs)
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("Summary = %+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %v, want 3", odd.Median)
	}
	single := Summarize([]float64{42})
	if single.Std != 0 || single.Mean != 42 || single.Median != 42 {
		t.Errorf("single-element summary = %+v", single)
	}
}

func TestEmptyPanics(t *testing.T) {
	funcs := map[string]func(){
		"Mean":      func() { Mean(nil) },
		"Variance":  func() { Variance([]float64{1}) },
		"MinMax":    func() { MinMax(nil) },
		"Summarize": func() { Summarize(nil) },
		"MeanStd":   func() { MeanStd(nil) },
	}
	for name, f := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on degenerate input", name)
				}
			}()
			f()
		}()
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	r := NewRNG(37)
	if err := quick.Check(func(nRaw uint8, scale uint16) bool {
		n := int(nRaw%50) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (r.Float64() - 0.5) * float64(scale+1)
		}
		return Variance(xs) >= 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanShiftInvariance(t *testing.T) {
	// Var(x + c) = Var(x); Mean(x + c) = Mean(x) + c.
	xs := []float64{1.5, 2.25, -3, 0.125, 9}
	shifted := make([]float64, len(xs))
	const c = 100.5
	for i, x := range xs {
		shifted[i] = x + c
	}
	if !almostEqual(Mean(shifted), Mean(xs)+c, 1e-12) {
		t.Error("mean not shift-equivariant")
	}
	if !almostEqual(Variance(shifted), Variance(xs), 1e-9) {
		t.Error("variance not shift-invariant")
	}
}
