package maxpower_test

import (
	"context"
	"testing"

	"repro/internal/evt"
	"repro/internal/fleet"
	"repro/maxpower"
)

func distFixture(t *testing.T) *maxpower.Population {
	t.Helper()
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestPlanShardsDerivation: the shard list covers the budget exactly
// and is stable across calls.
func TestPlanShardsDerivation(t *testing.T) {
	opt := maxpower.EstimateOptions{Seed: 13, MaxHyperSamples: 10}
	shards, err := maxpower.PlanShards(opt, maxpower.DistributedOptions{ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	total := 0
	for i, sh := range shards {
		if sh.Index != i || sh.Start != total {
			t.Errorf("shard %d: index/start = %d/%d, want %d/%d", i, sh.Index, sh.Start, i, total)
		}
		total += sh.Count
	}
	if total != 10 {
		t.Errorf("shards cover %d hyper-samples, want 10", total)
	}
	again, err := maxpower.PlanShards(opt, maxpower.DistributedOptions{ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if shards[i] != again[i] {
			t.Fatalf("shard derivation is not stable: %+v vs %+v", shards[i], again[i])
		}
	}
}

// namedSource is one row of a test table over the kinds of Source.
type namedSource struct {
	name string
	src  maxpower.Source
}

// distSources are the two kinds of Source the sharded reference runs
// over: the fixture population and C432 simulated on demand.
func distSources(t *testing.T) []namedSource {
	t.Helper()
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	return []namedSource{
		{"population", maxpower.FromPopulation(distFixture(t))},
		{"stream", maxpower.Stream(c, maxpower.PopulationSpec{Size: 2000, Seed: 5})},
	}
}

// TestEstimateDistributedOneShardMatchesEstimate: a one-shard plan is
// the classic sequential run, bit for bit — the degenerate case that
// anchors the whole determinism contract.
func TestEstimateDistributedOneShardMatchesEstimate(t *testing.T) {
	opt := maxpower.EstimateOptions{Seed: 13, Epsilon: 0.02, MaxHyperSamples: 24}
	for _, tc := range distSources(t) {
		want, err := maxpower.Run(context.Background(), tc.src, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := maxpower.EstimateDistributed(context.Background(), tc.src, opt, maxpower.DistributedOptions{ShardSize: 24})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.name+" one-shard plan", got, want)
	}
}

// TestEstimateDistributedDeterministic: the sharded run is identical
// across repeats and across shard-local recomputation (RunShard, then
// every shard's records added to one evt.Fold in plan order), over a
// population and over a stream.
func TestEstimateDistributedDeterministic(t *testing.T) {
	opt := maxpower.EstimateOptions{Seed: 13, Epsilon: 0.02, MaxHyperSamples: 24}
	dopt := maxpower.DistributedOptions{ShardSize: 4}
	for _, tc := range distSources(t) {
		first, err := maxpower.EstimateDistributed(context.Background(), tc.src, opt, dopt)
		if err != nil {
			t.Fatal(err)
		}
		second, err := maxpower.EstimateDistributed(context.Background(), tc.src, opt, dopt)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.name+" repeat", first, second)

		// Worker-side recomputation: run every shard independently (as the
		// fleet would, in any order on any machine) and merge.
		shards, err := maxpower.PlanShards(opt, dopt)
		if err != nil {
			t.Fatal(err)
		}
		perShard := make([][]maxpower.HyperRecord, len(shards))
		for i := len(shards) - 1; i >= 0; i-- { // reversed: order must not matter
			perShard[i], err = maxpower.RunShard(context.Background(), tc.src, opt, shards[i], nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		fold := evt.NewFold(evt.Config{Epsilon: opt.Epsilon, MaxHyperSamples: opt.MaxHyperSamples})
		for _, recs := range perShard {
			for _, rec := range recs {
				fold.Add(rec)
			}
		}
		sameResult(t, tc.name+" manual merge", fold.Result(), first)
	}
}

// TestEstimateDistributedProgressAndCancel: progress fires per
// hyper-sample with the folded global state; cancelling returns the
// partial prefix without error.
func TestEstimateDistributedProgressAndCancel(t *testing.T) {
	pop := distFixture(t)
	opt := maxpower.EstimateOptions{Seed: 13, Epsilon: 0.0001, MaxHyperSamples: 12}
	ctx, cancel := context.WithCancel(context.Background())
	var seen []int
	opt.Progress = func(p maxpower.Result) {
		seen = append(seen, p.HyperSamples)
		if len(seen) == 5 {
			cancel()
		}
	}
	res, err := maxpower.EstimateDistributed(ctx, maxpower.FromPopulation(pop), opt, maxpower.DistributedOptions{ShardSize: 3})
	if err != nil {
		t.Fatalf("cancelled distributed run errored: %v", err)
	}
	if res.HyperSamples >= 12 {
		t.Errorf("cancel had no effect: ran all %d hyper-samples", res.HyperSamples)
	}
	for i, k := range seen {
		if k != i+1 {
			t.Fatalf("progress hyper-sample counts not global/monotonic: %v", seen)
		}
	}
}

// TestEstimateDistributedRejectsCheckpointing: the whole-run checkpoint
// seam does not compose with sharding and must be refused loudly, by
// EstimateDistributed and by RunFleet before it dispatches a shard.
func TestEstimateDistributedRejectsCheckpointing(t *testing.T) {
	src := maxpower.FromPopulation(distFixture(t))
	opt := maxpower.EstimateOptions{Checkpoint: &maxpower.Checkpoint{}}
	if _, err := maxpower.EstimateDistributed(context.Background(), src, opt, maxpower.DistributedOptions{}); err == nil {
		t.Error("Checkpoint accepted by distributed run")
	}
	opt = maxpower.EstimateOptions{OnCheckpoint: func(maxpower.Checkpoint) {}}
	if _, err := maxpower.EstimateDistributed(context.Background(), src, opt, maxpower.DistributedOptions{}); err == nil {
		t.Error("OnCheckpoint accepted by distributed run")
	}
	coord := &fleet.Coordinator{Workers: []string{"http://127.0.0.1:0"}}
	if _, err := maxpower.RunFleet(context.Background(), coord, "job", nil, opt, maxpower.DistributedOptions{}); err == nil || coord.Stats().ShardsDispatched != 0 {
		t.Errorf("OnCheckpoint accepted by fleet run: err %v, %d shards dispatched", err, coord.Stats().ShardsDispatched)
	}
}

// TestRunRejectsEmptySource: a zero Source and a population Source
// without a population are errors from every runner, never a panic.
func TestRunRejectsEmptySource(t *testing.T) {
	sh := maxpower.Shard{Count: 1, RNG: [4]uint64{1}}
	for name, src := range map[string]maxpower.Source{
		"zero":           {},
		"nil population": maxpower.FromPopulation(nil),
	} {
		if _, err := maxpower.Run(context.Background(), src, maxpower.EstimateOptions{}); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
		if _, err := maxpower.RunShard(context.Background(), src, maxpower.EstimateOptions{}, sh, nil); err == nil {
			t.Errorf("%s: RunShard accepted it", name)
		}
		if _, err := maxpower.EstimateDistributed(context.Background(), src, maxpower.EstimateOptions{}, maxpower.DistributedOptions{}); err == nil {
			t.Errorf("%s: EstimateDistributed accepted it", name)
		}
	}
}
