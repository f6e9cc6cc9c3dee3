package maxpower_test

import (
	"testing"

	"repro/maxpower"
)

func sameResult(t *testing.T, label string, a, b maxpower.Result) {
	t.Helper()
	if a.Estimate != b.Estimate || a.CILow != b.CILow || a.CIHigh != b.CIHigh ||
		a.RelErr != b.RelErr || a.Units != b.Units || a.HyperSamples != b.HyperSamples ||
		a.Converged != b.Converged || a.ObservedMax != b.ObservedMax || a.SigmaSq != b.SigmaSq {
		t.Errorf("%s: results diverged:\n  a = %+v\n  b = %+v", label, a, b)
	}
}

// TestEstimateStreamingDeterministicAcrossWorkers is the tentpole's
// headline contract: for any seed, streaming estimation with Workers=8
// must be bit-identical to Workers=1, on both the zero-delay settle
// kernel and the timed settle-then-patch path.
func TestEstimateStreamingDeterministicAcrossWorkers(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	for _, delayModel := range []string{"zero", "fanout"} {
		for _, seed := range []uint64{1, 9, 31337} {
			spec := maxpower.PopulationSpec{Size: 20000, Seed: 5, DelayModel: delayModel}
			opt := maxpower.EstimateOptions{Seed: seed, Epsilon: 0.001, MaxHyperSamples: 6, Workers: 1}
			one, err := maxpower.EstimateStreaming(c, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers = 8
			eight, err := maxpower.EstimateStreaming(c, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, delayModel, one, eight)
		}
	}
}

// TestEstimateDeterministicAcrossBuildWorkers covers the Population batch
// path: populations built with different worker counts are identical, so
// estimation over them is too.
func TestEstimateDeterministicAcrossBuildWorkers(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	spec := maxpower.PopulationSpec{Size: 4000, Seed: 3, Workers: 1}
	p1, err := maxpower.BuildPopulation(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	p8, err := maxpower.BuildPopulation(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TrueMax() != p8.TrueMax() {
		t.Fatalf("population true max diverged: %v vs %v", p1.TrueMax(), p8.TrueMax())
	}
	for _, seed := range []uint64{2, 77} {
		r1, err := maxpower.Estimate(p1, maxpower.EstimateOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r8, err := maxpower.Estimate(p8, maxpower.EstimateOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "population", r1, r8)
	}
}

// TestEstimateOptionsWorkersValidation: negative budgets are rejected,
// positive and zero ones accepted.
func TestEstimateOptionsWorkersValidation(t *testing.T) {
	if err := (maxpower.EstimateOptions{Workers: -1}).Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	if err := (maxpower.EstimateOptions{Workers: 4}).Validate(); err != nil {
		t.Errorf("Workers=4 rejected: %v", err)
	}
}
