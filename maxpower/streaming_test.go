package maxpower_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/maxpower"
)

// streamOpts pins the iteration count (tiny ε never converges before
// MaxHyperSamples) so the infinite- and finite-population runs consume
// identical random draws and differ only in the §3.4 correction.
var streamOpts = maxpower.EstimateOptions{
	Seed:            9,
	Epsilon:         0.001,
	MaxHyperSamples: 8,
}

// TestEstimateStreamingInfinitePopulation covers DeclaredSize = 0: the
// raw-μ̂ flow with no finite correction.
func TestEstimateStreamingInfinitePopulation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{Seed: 5}, streamOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 {
		t.Errorf("estimate = %v, want > 0", res.Estimate)
	}
	if res.HyperSamples != 8 {
		t.Errorf("hyper-samples = %d, want the full 8 (ε is unreachable)", res.HyperSamples)
	}
	// Every draw costs one simulation; failed-fit retries re-draw whole
	// hyper-samples, so the count is a multiple of m·n = 300 and at
	// least 8 hyper-samples' worth.
	if min := 8 * 10 * 30; res.Units < min || res.Units%300 != 0 {
		t.Errorf("units = %d, want a multiple of 300 that is ≥ %d", res.Units, min)
	}
	// Each hyper-sample's estimate is clamped at its own observed max
	// (the population maximum cannot be below an observed unit).
	for i, hs := range res.Trace {
		if hs.Estimate < hs.ObservedMax {
			t.Errorf("hyper-sample %d: estimate %v below its observed max %v",
				i, hs.Estimate, hs.ObservedMax)
		}
	}
}

// TestEstimateStreamingFiniteCorrection covers DeclaredSize > 0: the
// (1 − 1/|V|) quantile correction must pull the estimate at or below
// the infinite-population run with identical draws.
func TestEstimateStreamingFiniteCorrection(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	inf, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{Seed: 5}, streamOpts)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{Seed: 5, Size: 20000}, streamOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Units != inf.Units || fin.HyperSamples != inf.HyperSamples {
		t.Fatalf("runs diverged in cost: finite (units=%d k=%d) vs infinite (units=%d k=%d)",
			fin.Units, fin.HyperSamples, inf.Units, inf.HyperSamples)
	}
	if fin.Estimate <= 0 {
		t.Errorf("finite estimate = %v, want > 0", fin.Estimate)
	}
	if fin.Estimate > inf.Estimate {
		t.Errorf("finite correction raised the estimate: %v > %v", fin.Estimate, inf.Estimate)
	}
	// Per hyper-sample the corrected quantile never exceeds raw μ̂.
	for i := range fin.Trace {
		if fin.Trace[i].Estimate > inf.Trace[i].Estimate {
			t.Errorf("hyper-sample %d: corrected %v > raw %v",
				i, fin.Trace[i].Estimate, inf.Trace[i].Estimate)
		}
	}
}

// TestEstimateConcurrentSharedPopulation runs concurrent estimations on
// one shared *Population with different seeds (the serving daemon's hot
// path) and checks, under -race, that results match sequential runs.
func TestEstimateConcurrentSharedPopulation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	seeds := []uint64{2, 3, 4, 5}
	want := make([]maxpower.Result, len(seeds))
	for i, s := range seeds {
		want[i], err = maxpower.Estimate(pop, maxpower.EstimateOptions{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
	}

	got := make([]maxpower.Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s uint64) {
			defer wg.Done()
			got[i], errs[i] = maxpower.Estimate(pop, maxpower.EstimateOptions{Seed: s})
		}(i, s)
	}
	wg.Wait()

	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seeds[i], errs[i])
		}
		if got[i].Estimate != want[i].Estimate || got[i].Units != want[i].Units {
			t.Errorf("seed %d: concurrent (est=%v units=%d) != sequential (est=%v units=%d)",
				seeds[i], got[i].Estimate, got[i].Units, want[i].Estimate, want[i].Units)
		}
	}
}

// TestEstimateContextCancellation checks the facade-level cancellation
// path stops early with a partial, non-converged result.
func TestEstimateContextCancellation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opt := maxpower.EstimateOptions{
		Seed: 2, Epsilon: 0.001, MaxHyperSamples: 500,
		Progress: func(p maxpower.ProgressSnapshot) {
			if p.HyperSamples == 3 {
				cancel()
			}
		},
	}
	res, err := maxpower.EstimateContext(ctx, pop, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("cancelled run reported convergence")
	}
	if res.HyperSamples != 3 {
		t.Errorf("stopped after %d hyper-samples, want 3 (cancel at boundary)", res.HyperSamples)
	}
}

// TestSpecValidation covers the library-level rejection of invalid
// population specs.
func TestSpecValidation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	bad := []maxpower.PopulationSpec{
		{Size: -1},
		{Kind: "nonsense"},
		{Kind: maxpower.PopHighActivity, Activity: -0.1},
		{Kind: maxpower.PopHighActivity, Activity: 1.0001},
		{Kind: maxpower.PopConstrained},                              // needs Activity or Probs
		{Kind: maxpower.PopConstrained, Activity: 1.5},               //
		{Kind: maxpower.PopConstrained, Probs: []float64{0.5, -0.2}}, //
		{Kind: maxpower.PopConstrained, Probs: []float64{0.5, 1.01}}, //
		// NaN fails every comparison, so it must not pass a range check.
		{Kind: maxpower.PopHighActivity, Activity: nan},
		{Activity: math.Inf(1)},
		{Kind: maxpower.PopHighActivity, Skew: nan},
		{Kind: maxpower.PopConstrained, Activity: nan},
		{Kind: maxpower.PopConstrained, Activity: math.Inf(-1)},
		{Kind: maxpower.PopConstrained, Probs: []float64{0.5, nan}},
		// Electrical constants power.NewEvaluator refuses must be an
		// error here, never its panic.
		{Power: power.Params{Vdd: 3.3}}, // partial: ClockNS stays 0
		{Power: power.Params{Vdd: -1, ClockNS: 10}},
		{Power: power.Params{Vdd: nan, ClockNS: 10}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d accepted by Validate: %+v", i, spec)
		} else if !strings.Contains(err.Error(), "maxpower:") {
			t.Errorf("spec %d error not descriptive: %v", i, err)
		}
	}
	// BuildPopulation and EstimateStreaming must reject them too (the
	// service trusts this).
	for i, spec := range bad {
		if spec.Size == 0 {
			spec.Size = 200
		}
		if _, err := maxpower.BuildPopulation(c, spec); err == nil {
			t.Errorf("spec %d accepted by BuildPopulation: %+v", i, spec)
		}
		if _, err := maxpower.EstimateStreaming(c, spec, maxpower.EstimateOptions{MaxHyperSamples: 3}); err == nil {
			t.Errorf("spec %d accepted by EstimateStreaming: %+v", i, spec)
		}
	}
	// Sanity: the defaults stay valid.
	if err := (maxpower.PopulationSpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

// TestEstimateOptionsValidation covers the library-level rejection of
// invalid estimation options.
func TestEstimateOptionsValidation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	bad := []maxpower.EstimateOptions{
		{Epsilon: nan},
		{Epsilon: math.Inf(1)},
		{Confidence: nan},
		{Confidence: math.Inf(-1)},
		{Epsilon: -0.05},
		{Epsilon: 1},
		{Epsilon: 2.5},
		{Confidence: -0.9},
		{Confidence: 1},
		{SampleSize: -30},
		{SamplesPerHyper: -10},
		{SamplesPerHyper: 2},
		{MaxHyperSamples: -1},
	}
	for i, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("options %d accepted by Validate: %+v", i, opt)
		}
		if _, err := maxpower.Estimate(pop, opt); err == nil {
			t.Errorf("options %d accepted by Estimate: %+v", i, opt)
		} else if !strings.Contains(err.Error(), "maxpower:") {
			t.Errorf("options %d error not descriptive: %v", i, err)
		}
	}
	if err := (maxpower.EstimateOptions{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}
