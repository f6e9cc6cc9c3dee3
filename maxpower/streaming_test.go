package maxpower_test

import (
	"context"
	"fmt"
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
// path, over a population and over a stream: cancelled from Progress at
// k = 3, Run stops at that boundary with a partial, non-converged result
// and a nil error.
func TestEstimateContextCancellation(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []namedSource{
		{"population", maxpower.FromPopulation(pop)},
		{"stream", maxpower.Stream(c, maxpower.PopulationSpec{Size: 20000, Seed: 1})},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := maxpower.EstimateOptions{
			Seed: 2, Epsilon: 0.001, MaxHyperSamples: 500,
			Progress: func(p maxpower.Result) {
				if p.HyperSamples == 3 {
					cancel()
				}
			},
		}
		res, err := maxpower.Run(ctx, tc.src, opt)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Converged {
			t.Errorf("%s: cancelled run reported convergence", tc.name)
		}
		if res.HyperSamples != 3 {
			t.Errorf("%s: stopped after %d hyper-samples, want 3 (cancel at boundary)", tc.name, res.HyperSamples)
		}
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
		// 2³⁴ pairs on C432 once passed Validate, and BuildPopulation
		// then died allocating a 77 GB plane: a fatal error, not a
		// recoverable panic, so the check must come first.
		{Size: 1 << 34},
		{Size: 1<<22 + 1},
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
	bad = append(bad, negativePowerSpecs()...)
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
	// Sanity: the defaults and the largest size stay valid.
	if err := (maxpower.PopulationSpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if err := (maxpower.PopulationSpec{Size: 1 << 22}).Validate(); err != nil {
		t.Errorf("Size 2²² rejected: %v", err)
	}
}

// TestPackedPlanesBound: a batch of p pairs on a circuit with i inputs
// packs into p·i/4 bytes of bit planes, so a wide netlist can take a
// size or a hyper-sample that passes Validate past the machine's
// memory. On 40,000 inputs, 2²² pairs would be 42 GB for a population
// build and m·n = 2²² pairs 42 GB for one streaming hyper-sample; both
// must fail with the planes bound before allocating, or the test dies.
func TestPackedPlanesBound(t *testing.T) {
	c, err := maxpower.LoadBench("wide", strings.NewReader(wideBench(40000)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 1 << 22, DelayModel: "zero"})
	if err == nil || !strings.Contains(err.Error(), "packed planes") {
		t.Errorf("BuildPopulation of 2²² pairs on 40,000 inputs: error %v", err)
	}
	opt := maxpower.EstimateOptions{SampleSize: 64, SamplesPerHyper: 1 << 16}
	if err := opt.Validate(); err != nil {
		t.Fatalf("m·n = 2²² rejected by Validate: %v", err)
	}
	_, err = maxpower.EstimateStreaming(c, maxpower.PopulationSpec{DelayModel: "zero"}, opt)
	if err == nil || !strings.Contains(err.Error(), "packed planes") {
		t.Errorf("EstimateStreaming of m·n = 2²² on 40,000 inputs: error %v", err)
	}
}

// wideBench is a .bench netlist with the given number of inputs and one
// gate.
func wideBench(inputs int) string {
	var b strings.Builder
	for i := 0; i < inputs; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
	}
	b.WriteString("OUTPUT(y)\ny = AND(i0, i1)\n")
	return b.String()
}

// negativePowerSpecs are specs whose electrical constants are finite
// but negative. C432 with IntrinsicF -60 and LeakNW -5 once built a
// population with a negative TrueMax, and estimates on it never
// converged.
func negativePowerSpecs() []maxpower.PopulationSpec {
	var specs []maxpower.PopulationSpec
	for _, set := range []func(*power.Params){
		func(p *power.Params) { p.IntrinsicF, p.LeakNW = -60, -5 },
		func(p *power.Params) { p.InputCapF = -1 },
		func(p *power.Params) { p.WireCapF = -1 },
		func(p *power.Params) { p.PadCapF = -1 },
		func(p *power.Params) { p.SCFraction = -2 },
		func(p *power.Params) { p.GlitchSwing = -3 },
	} {
		p := power.Defaults()
		set(&p)
		specs = append(specs, maxpower.PopulationSpec{Size: 2000, Seed: 1, Power: p})
	}
	return specs
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
		if _, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{}, opt); err == nil {
			t.Errorf("options %d accepted by EstimateStreaming: %+v", i, opt)
		}
	}
	if err := (maxpower.EstimateOptions{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// Valid options do not rescue a spec with negative electrical
	// constants: both entry points refuse it before simulating a unit.
	for i, spec := range negativePowerSpecs() {
		if _, err := maxpower.BuildPopulation(c, spec); err == nil || !strings.Contains(err.Error(), "power: ") {
			t.Errorf("negative-power spec %d: BuildPopulation error %v", i, err)
		}
		if _, err := maxpower.EstimateStreaming(c, spec, maxpower.EstimateOptions{}); err == nil || !strings.Contains(err.Error(), "power: ") {
			t.Errorf("negative-power spec %d: EstimateStreaming error %v", i, err)
		}
	}
}

// TestOptionsRejectOversizedHyperSample checks that Validate, and so the
// service's admission, turns away a hyper-sample too large to allocate:
// at most 65,536 samples and 4,194,304 units per hyper-sample. With
// m = 2¹⁸ samples of n = 2²² units, Validate once returned nil and
// Estimate then died allocating 2⁴⁰ float64s, a fatal error rather than
// a recoverable panic.
func TestOptionsRejectOversizedHyperSample(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 1000, Seed: 1, DelayModel: "zero"})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []maxpower.EstimateOptions{
		{SampleSize: 1 << 22, SamplesPerHyper: 1 << 18},
		{SampleSize: 1 << 31, SamplesPerHyper: 1 << 31},
		{SampleSize: 1, SamplesPerHyper: 1<<16 + 1},
		{SampleSize: 4194304/3 + 1, SamplesPerHyper: 3},
	} {
		if err := opt.Validate(); err == nil {
			t.Errorf("m = %d, n = %d accepted by Validate", opt.SamplesPerHyper, opt.SampleSize)
		}
		if _, err := maxpower.Estimate(pop, opt); err == nil {
			t.Errorf("m = %d, n = %d accepted by Estimate", opt.SamplesPerHyper, opt.SampleSize)
		}
	}
	for _, opt := range []maxpower.EstimateOptions{
		{SampleSize: 64, SamplesPerHyper: 1 << 16},
		{SampleSize: 4194304 / 3, SamplesPerHyper: 3},
	} {
		if err := opt.Validate(); err != nil {
			t.Errorf("m = %d, n = %d rejected: %v", opt.SamplesPerHyper, opt.SampleSize, err)
		}
	}
}
