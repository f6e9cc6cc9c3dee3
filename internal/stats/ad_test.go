package stats

import (
	"math"
	"testing"
)

// adPValue returns an approximate p-value for the Anderson–Darling
// statistic with a fully-specified null distribution (case 0), using the
// Sinclair–Spurr-style piecewise approximation. Accuracy is a few percent
// — sufficient for the screening these tests do.
func adPValue(a2 float64) float64 {
	switch {
	case math.IsNaN(a2):
		return math.NaN()
	case a2 < 0.2:
		return 1 - math.Exp(-13.436+101.14*a2-223.73*a2*a2)
	case a2 < 0.34:
		return 1 - math.Exp(-8.318+42.796*a2-59.938*a2*a2)
	case a2 < 0.6:
		return math.Exp(0.9177 - 4.279*a2 - 1.38*a2*a2)
	case a2 < 13:
		return math.Exp(1.2937 - 5.709*a2 + 0.0186*a2*a2)
	default:
		return 0
	}
}

func uniformCDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestADStatisticUniformData(t *testing.T) {
	// Data drawn from the null: A² should be small (E[A²] ≈ 1) and the
	// p-value comfortably non-significant.
	r := NewRNG(1)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	a2 := ADStatistic(xs, uniformCDF)
	if a2 > 4 {
		t.Errorf("A² = %v on null data", a2)
	}
	if p := adPValue(a2); p < 0.01 {
		t.Errorf("p-value %v rejects the truth", p)
	}
}

func TestADStatisticDetectsShift(t *testing.T) {
	// Normal(0.3, 0.1) data against a uniform null must be rejected hard.
	r := NewRNG(2)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 0.3 + 0.1*r.NormFloat64()
	}
	a2 := ADStatistic(xs, uniformCDF)
	if a2 < 5 {
		t.Errorf("A² = %v too small for blatantly wrong null", a2)
	}
	if p := adPValue(a2); p > 0.01 {
		t.Errorf("p-value %v fails to reject", p)
	}
}

func TestADMoreTailSensitiveThanKS(t *testing.T) {
	// A distribution that matches in the bulk but deviates in the upper
	// tail: AD's normalized statistic should flag it at least as strongly
	// as KS does. Construct: uniform bulk, compressed top decile.
	r := NewRNG(3)
	xs := make([]float64, 4000)
	for i := range xs {
		u := r.Float64()
		if u > 0.9 {
			u = 0.9 + (u-0.9)*0.5 // squash the top tail
		}
		xs[i] = u
	}
	a2 := ADStatistic(xs, uniformCDF)
	pAD := adPValue(a2)
	d := KSStatistic(xs, uniformCDF)
	pKS := KSPValue(d, len(xs))
	if pAD > pKS+0.05 {
		t.Errorf("AD (p=%v) less sensitive than KS (p=%v) to a tail defect", pAD, pKS)
	}
	if pAD > 0.05 {
		t.Errorf("tail defect not detected: p=%v", pAD)
	}
}

func TestADPValueMonotone(t *testing.T) {
	prev := 1.1
	for a2 := 0.05; a2 < 14; a2 += 0.05 {
		p := adPValue(a2)
		if p > prev+0.02 { // the piecewise approximation allows tiny seams
			t.Fatalf("adPValue not (approximately) monotone at %v: %v > %v", a2, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p out of range at %v: %v", a2, p)
		}
		prev = p
	}
	if !math.IsNaN(adPValue(math.NaN())) {
		t.Error("NaN handling")
	}
}

func TestADStatisticPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ADStatistic(nil, uniformCDF)
}
