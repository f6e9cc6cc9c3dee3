package fleet_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/evt"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// testPopulation builds a finite population with a thin upper tail, the
// shape the reverse-Weibull fit expects (same construction as the evt
// package tests).
func testPopulation(size int, seed uint64) *vectorgen.Population {
	rng := stats.NewRNG(seed)
	powers := make([]float64, size)
	for i := range powers {
		u := rng.Float64()
		v := rng.Float64()
		powers[i] = 10 - 4*math.Pow(u, 0.4)*(1+0.2*v)
	}
	return vectorgen.FromPowers("beta-like", powers)
}

// statisticalFields is the bit-identity comparison surface: everything
// in a Result except Trace and wall-clock timings.
type statisticalFields struct {
	Estimate, CILow, CIHigh, RelErr float64
	SigmaSq, ObservedMax            float64
	HyperSamples, Units             int
	Converged                       bool
}

func statFields(r evt.Result) statisticalFields {
	return statisticalFields{
		Estimate: r.Estimate, CILow: r.CILow, CIHigh: r.CIHigh, RelErr: r.RelErr,
		SigmaSq: r.SigmaSq, ObservedMax: r.ObservedMax,
		HyperSamples: r.HyperSamples, Units: r.Units,
		Converged: r.Converged,
	}
}

// referenceRun is the single-node sharded reference: shards executed
// sequentially in plan order, each record added to one evt.Fold,
// stopping at convergence — the run every fleet execution must
// bit-match (maxpower.EstimateDistributed wraps the same loop).
func referenceRun(t *testing.T, pop *vectorgen.Population, cfg evt.Config, plan fleet.Plan) evt.Result {
	t.Helper()
	shards, err := plan.Shards()
	if err != nil {
		t.Fatal(err)
	}
	fold := evt.NewFold(cfg)
	for _, sh := range shards {
		est, err := evt.New(pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = fleet.RunShard(context.Background(), est, sh, func(_ int, rec evt.HyperRecord) bool {
			fold.Add(rec)
			return !fold.Result().Converged
		})
		if err != nil {
			t.Fatal(err)
		}
		if fold.Result().Converged {
			break
		}
	}
	return fold.Result()
}

func TestPlanShards(t *testing.T) {
	plan := fleet.Plan{Seed: 11, ShardSize: 8, MaxHyperSamples: 20}
	shards, err := plan.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	wantCounts := []int{8, 8, 4}
	r := stats.NewRNG(11)
	for i, sh := range shards {
		if sh.Index != i || sh.Start != i*8 || sh.Count != wantCounts[i] {
			t.Errorf("shard %d = %+v, want start %d count %d", i, sh, i*8, wantCounts[i])
		}
		if sh.RNG != r.State() {
			t.Errorf("shard %d RNG state is not the seed origin jumped %d times", i, i)
		}
		if err := sh.Validate(); err != nil {
			t.Errorf("shard %d invalid: %v", i, err)
		}
		r.Jump()
	}
	// Shard 0 starts exactly at the plain single-stream origin: a
	// one-shard plan degenerates to the classic run.
	if shards[0].RNG != stats.NewRNG(11).State() {
		t.Error("shard 0 does not start at NewRNG(seed)")
	}
}

func TestPlanValidate(t *testing.T) {
	if _, err := (fleet.Plan{Seed: 1, ShardSize: -1, MaxHyperSamples: 10}).Shards(); err == nil {
		t.Error("negative shard size accepted")
	}
	if _, err := (fleet.Plan{Seed: 1, ShardSize: 4}).Shards(); err == nil {
		t.Error("zero hyper-sample budget accepted")
	}
	if err := (fleet.Shard{Index: 0, Start: 0, Count: 4}).Validate(); err == nil {
		t.Error("zero RNG state accepted")
	}
	if err := (fleet.Shard{Index: 0, Start: 0, Count: 0, RNG: [4]uint64{1}}).Validate(); err == nil {
		t.Error("zero-count shard accepted")
	}
}

// TestSingleShardPlanMatchesPlainRun: a plan with one shard covering
// the whole budget is the classic sequential run, bit for bit.
func TestSingleShardPlanMatchesPlainRun(t *testing.T) {
	pop := testPopulation(20000, 31)
	cfg := evt.Config{Epsilon: 0.004, MaxHyperSamples: 24}
	est, err := evt.New(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := est.Run(stats.NewRNG(7))

	plan := fleet.Plan{Seed: 7, ShardSize: 24, MaxHyperSamples: 24}
	got := referenceRun(t, pop, cfg, plan)
	if statFields(got) != statFields(want) {
		t.Errorf("one-shard plan diverged from plain run:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
}

// TestRunShardDeterministicAcrossReruns: re-running a shard (the retry
// path after a worker death) reproduces identical records.
func TestRunShardDeterministicAcrossReruns(t *testing.T) {
	pop := testPopulation(20000, 31)
	cfg := evt.Config{}
	plan := fleet.Plan{Seed: 9, ShardSize: 6, MaxHyperSamples: 18}
	shards, err := plan.Shards()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		var runs [2][]evt.HyperRecord
		for i := range runs {
			est, err := evt.New(pop, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs[i], err = fleet.RunShard(context.Background(), est, sh, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(runs[0]) != sh.Count {
			t.Fatalf("shard %d returned %d records, want %d", sh.Index, len(runs[0]), sh.Count)
		}
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] {
				t.Fatalf("shard %d record %d differs across reruns: %+v vs %+v",
					sh.Index, i, runs[0][i], runs[1][i])
			}
		}
	}
}
