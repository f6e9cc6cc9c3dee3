package fleet

import (
	"context"

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
