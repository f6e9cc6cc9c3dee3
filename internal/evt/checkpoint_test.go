package evt

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// statisticalFields extracts the deterministic part of a Result — the
// fields the checkpoint contract promises are bit-identical across an
// interruption (everything except Trace and wall-clock timings).
type statisticalFields struct {
	Estimate, CILow, CIHigh, RelErr float64
	SigmaSq, ObservedMax            float64
	HyperSamples, Units             int
	Converged                       bool
}

func statFields(r Result) statisticalFields {
	return statisticalFields{
		Estimate: r.Estimate, CILow: r.CILow, CIHigh: r.CIHigh, RelErr: r.RelErr,
		SigmaSq: r.SigmaSq, ObservedMax: r.ObservedMax,
		HyperSamples: r.HyperSamples, Units: r.Units,
		Converged: r.Converged,
	}
}

// TestResumeBitIdenticalAtEveryCheckpoint runs once uninterrupted while
// recording every checkpoint, then resumes a fresh estimator from each of
// them in turn and demands the exact same final Result — the contract the
// service's crash recovery is built on.
func TestResumeBitIdenticalAtEveryCheckpoint(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	cfg := Config{Epsilon: 0.004, MaxHyperSamples: 24}

	var cps []Checkpoint
	cfgRec := cfg
	cfgRec.OnCheckpoint = func(cp Checkpoint) { cps = append(cps, cp) }
	est, err := New(pop, cfgRec)
	if err != nil {
		t.Fatal(err)
	}
	want := est.Run(stats.NewRNG(7))
	if len(cps) != want.HyperSamples {
		t.Fatalf("got %d checkpoints for %d hyper-samples", len(cps), want.HyperSamples)
	}
	if want.HyperSamples < 3 {
		t.Fatalf("run too short to exercise resume: k=%d", want.HyperSamples)
	}

	for i := range cps {
		cp := cps[i]
		if err := cp.Validate(cfg); err != nil {
			t.Fatalf("checkpoint %d invalid: %v", i, err)
		}
		rcfg := cfg
		rcfg.Resume = &cp
		rest, err := New(pop, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Any rng seed: Resume must overwrite its state entirely.
		got := rest.Run(stats.NewRNG(uint64(1000 + i)))
		if statFields(got) != statFields(want) {
			t.Errorf("resume from checkpoint %d diverged:\n got  %+v\n want %+v",
				i+1, statFields(got), statFields(want))
		}
		if wantTrace := want.HyperSamples - (i + 1); len(got.Trace) != wantTrace {
			t.Errorf("resume from checkpoint %d: trace has %d entries, want %d (post-resume only)",
				i+1, len(got.Trace), wantTrace)
		}
	}
}

// TestResumeFromConvergedCheckpoint: a crash between the final checkpoint
// and the terminal record resumes straight to the converged result
// without drawing any new hyper-sample.
func TestResumeFromConvergedCheckpoint(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	cfg := Config{Epsilon: 0.02, MaxHyperSamples: 100}

	var last Checkpoint
	cfgRec := cfg
	cfgRec.OnCheckpoint = func(cp Checkpoint) { last = cp }
	est, _ := New(pop, cfgRec)
	want := est.Run(stats.NewRNG(5))
	if !want.Converged {
		t.Fatalf("reference run did not converge (k=%d)", want.HyperSamples)
	}

	rcfg := cfg
	rcfg.Resume = &last
	rest, _ := New(pop, rcfg)
	got := rest.Run(stats.NewRNG(99))
	if statFields(got) != statFields(want) {
		t.Errorf("converged-checkpoint resume diverged:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
	if len(got.Trace) != 0 {
		t.Errorf("converged-checkpoint resume drew %d new hyper-samples, want 0", len(got.Trace))
	}
}

// TestCheckpointConsumesNoRandomness: a run with OnCheckpoint wired is
// bit-identical to one without (same promise OnProgress makes), even
// when the callback keeps every Checkpoint and appends to its Records.
// The records are shared with the run, so this also checks that each
// kept checkpoint still holds exactly the run's first i + 1 records
// and its own appended sentinel: the run must never write over them.
func TestCheckpointConsumesNoRandomness(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	base, _ := New(pop, Config{Epsilon: 0.01, MaxHyperSamples: 50})
	want := base.Run(stats.NewRNG(3))
	if want.HyperSamples < 3 {
		t.Fatalf("run too short to share records: k=%d", want.HyperSamples)
	}

	sentinel := HyperRecord{Estimate: -1, Units: -1, ObservedMax: -2}
	var kept []Checkpoint
	observed, _ := New(pop, Config{
		Epsilon: 0.01, MaxHyperSamples: 50,
		OnCheckpoint: func(cp Checkpoint) {
			cp.Records = append(cp.Records, sentinel)
			kept = append(kept, cp)
		},
	})
	got := observed.Run(stats.NewRNG(3))
	if statFields(got) != statFields(want) {
		t.Error("OnCheckpoint changed the run's result")
	}
	trace := traceRecords(want)
	if len(kept) != len(trace) {
		t.Fatalf("got %d checkpoints for %d hyper-samples", len(kept), len(trace))
	}
	for i, cp := range kept {
		wantRecs := append(trace[:i+1:i+1], sentinel)
		if !slices.Equal(cp.Records, wantRecs) {
			t.Errorf("checkpoint %d holds %+v, want the run's first %d records and the sentinel", i, cp.Records, i+1)
		}
	}
}

// TestCheckpointValidate rejects states a run cannot have produced,
// among them records that are not whole attempts of m·n units and more
// records than the run's budget.
func TestCheckpointValidate(t *testing.T) {
	cfg := Config{MaxHyperSamples: 3}
	rec := HyperRecord{Estimate: 2, Units: 300, ObservedMax: 1.5}
	good := Checkpoint{Records: []HyperRecord{rec, {Estimate: 2.5, Units: 600, ObservedMax: 2.5}}, RNG: [4]uint64{1, 2, 3, 4}}
	if err := good.Validate(cfg); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}
	with := func(r HyperRecord) []HyperRecord { return []HyperRecord{rec, r} }
	bad := map[string]Checkpoint{
		"empty":                     {},
		"NaN estimate":              {Records: with(HyperRecord{Estimate: math.NaN(), Units: 300, ObservedMax: 1}), RNG: [4]uint64{1}},
		"Inf estimate":              {Records: with(HyperRecord{Estimate: math.Inf(1), Units: 300, ObservedMax: 1}), RNG: [4]uint64{1}},
		"units below one per hyper": {Records: with(HyperRecord{Estimate: 2, Units: 1, ObservedMax: 1}), RNG: [4]uint64{1}},
		"units not whole attempts":  {Records: with(HyperRecord{Estimate: 2, Units: 450, ObservedMax: 1}), RNG: [4]uint64{1}},
		"Inf observed max":          {Records: with(HyperRecord{Estimate: 2, Units: 300, ObservedMax: math.Inf(-1)}), RNG: [4]uint64{1}},
		"zero RNG state":            {Records: with(rec)},
		"past the budget":           {Records: []HyperRecord{rec, rec, rec, rec}, RNG: [4]uint64{1}},
	}
	for name, cp := range bad {
		if err := cp.Validate(cfg); err == nil {
			t.Errorf("%s: bad checkpoint accepted: %+v", name, cp)
		}
	}
	// Config.Validate covers Resume too.
	if err := (Config{Resume: &Checkpoint{}}).Validate(); err == nil {
		t.Error("Config with invalid Resume accepted")
	}
}

// TestResumeCancelledImmediately: resuming under an already-cancelled
// context returns the checkpointed state as the best-so-far result.
func TestResumeCancelledImmediately(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	cfg := Config{Epsilon: 1e-9, MaxHyperSamples: 6}

	var cps []Checkpoint
	cfgRec := cfg
	cfgRec.OnCheckpoint = func(cp Checkpoint) { cps = append(cps, cp) }
	est, _ := New(pop, cfgRec)
	est.Run(stats.NewRNG(11))
	if len(cps) < 3 {
		t.Fatalf("want ≥ 3 checkpoints, got %d", len(cps))
	}

	cp := cps[2] // k = 3: an interval exists
	rcfg := cfg
	rcfg.Resume = &cp
	rest, _ := New(pop, rcfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := rest.RunContext(ctx, stats.NewRNG(0))
	units := 0
	for _, rec := range cp.Records {
		units += rec.Units
	}
	if got.HyperSamples != 3 || got.Units != units {
		t.Errorf("cancelled resume = k=%d units=%d, want k=3 units=%d",
			got.HyperSamples, got.Units, units)
	}
	if got.Estimate == 0 {
		t.Error("cancelled resume lost the checkpointed estimate")
	}
}
