package fleet

import (
	"context"
	"fmt"

	"repro/internal/evt"
	"repro/internal/stats"
)

// RunShard executes hyper-samples [sh.Start, sh.Start+sh.Count) of a
// sharded estimation against est, drawing from the shard's substream.
// onHyper, when non-nil, is invoked after every completed hyper-sample
// with the shard-local completion count and the new record; returning
// false stops the shard early (the single-node reference uses this for
// convergence-driven early stop; workers track progress with it).
//
// The returned records always cover the completed prefix, even when ctx
// is cancelled mid-shard (err reports the cancellation).
func RunShard(ctx context.Context, est *evt.Estimator, sh Shard, onHyper func(done int, rec evt.HyperRecord) bool) ([]evt.HyperRecord, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(0)
	rng.SetState(sh.RNG)
	var records []evt.HyperRecord
	for len(records) < sh.Count {
		if err := ctx.Err(); err != nil {
			return records, err
		}
		rec := est.HyperSample(rng).HyperRecord
		records = append(records, rec)
		if onHyper != nil && !onHyper(len(records), rec) {
			break
		}
	}
	return records, nil
}

// MergeShards folds per-shard record slices, ordered by shard index,
// into the job's Result via evt.FoldRecords. Every shard up to the one
// containing the stopping point must be present (nil slices past a
// converged prefix are fine); a gap before the stopping point would
// silently misalign the global hyper-sample order, so it is an error.
func MergeShards(cfg evt.Config, shards [][]evt.HyperRecord) (evt.Result, error) {
	var recs []evt.HyperRecord
	for i, s := range shards {
		if s == nil {
			// Records so far must already decide the run: either they
			// converge or they exhaust the budget.
			res := evt.FoldRecords(cfg, recs)
			if !res.Converged && len(recs) < cfg.Defaults().MaxHyperSamples {
				return evt.Result{}, fmt.Errorf("fleet: merge gap at shard %d before the stopping point", i)
			}
			return res, nil
		}
		recs = append(recs, s...)
	}
	return evt.FoldRecords(cfg, recs), nil
}
