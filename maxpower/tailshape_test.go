package maxpower_test

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/weibull"
	"repro/maxpower"
)

// TestTailShapeAboveTwo checks the paper's §3.2 premise on the
// circuits' own power laws: the maximum of n = 30 cycle powers follows
// a reverse Weibull law whose shape α exceeds 2, the condition under
// which Smith's MLE is asymptotically normal and the constraint every
// hyper-sample's fit imposes (weibull.DefaultAlphaMin). Per circuit it
// draws 2,000 such maxima from a 20,000-pair HighActivity population
// and fits them with no shape constraint; α̂ must clear 2. The estimator
// fits 10 maxima at a time, where α̂ often sits on the constraint; this
// checks that the constraint agrees with F's tail, not with those fits.
// Fitted to 200 maxima, C880 came as close as 2.02, so the sample stays
// at 2,000.
func TestTailShapeAboveTwo(t *testing.T) {
	const (
		maxima = 2000
		n      = 30
	)
	for _, name := range []string{"C432", "C880", "C1355", "C3540", "C7552"} {
		c, err := maxpower.Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, Size: 20000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(1)
		xs := make([]float64, maxima)
		for i := range xs {
			xs[i] = math.Inf(-1)
			for j := 0; j < n; j++ {
				xs[i] = math.Max(xs[i], pop.SamplePower(rng))
			}
		}
		fit, err := weibull.FitMLEShape(xs, 0)
		if err != nil {
			t.Errorf("%s: unconstrained fit of %d maxima: %v", name, maxima, err)
			continue
		}
		t.Logf("%s: α̂ = %.2f over %d maxima of %d", name, fit.Alpha, maxima, n)
		if !(fit.Alpha > 2) {
			t.Errorf("%s: α̂ = %v, want > 2", name, fit.Alpha)
		}
	}
}
