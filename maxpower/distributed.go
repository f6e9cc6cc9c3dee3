package maxpower

import (
	"context"
	"encoding/json"
	"errors"

	"repro/internal/evt"
	"repro/internal/fleet"
)

// Shard is one dispatchable slice of a sharded estimation; see
// fleet.Shard.
type Shard = fleet.Shard

// HyperRecord is one hyper-sample's transportable outcome; see
// evt.HyperRecord. The records of a plan's shards, added in plan order
// to one evt.Fold, reproduce the sequential run bit for bit.
type HyperRecord = evt.HyperRecord

// DefaultShardSize is the hyper-samples per shard when
// DistributedOptions does not say otherwise.
const DefaultShardSize = fleet.DefaultShardSize

// DistributedOptions configures how an estimation shards across
// workers. The shard plan — derived from these options plus the
// EstimateOptions seed and hyper-sample cap — is the only thing a fleet
// and the single-node reference must share to bit-match.
type DistributedOptions struct {
	// ShardSize is hyper-samples per shard (0 = DefaultShardSize). The
	// last shard may be shorter.
	ShardSize int
}

// PlanShards derives the shard list a distributed run executes: shard k
// covers hyper-samples [k·size, (k+1)·size) of the budget and draws
// from the seed's substream jumped k times (2^128 steps apart, so shard
// streams never overlap). Derivation is a pure function of the options,
// so coordinators, retrying workers, and the single-node reference all
// agree on it.
func PlanShards(opt EstimateOptions, dopt DistributedOptions) ([]Shard, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return shardPlan(opt, dopt).Shards()
}

func shardPlan(opt EstimateOptions, dopt DistributedOptions) fleet.Plan {
	return fleet.Plan{
		Seed:            opt.Seed,
		ShardSize:       dopt.ShardSize,
		MaxHyperSamples: opt.evtParams().Defaults().MaxHyperSamples,
	}
}

// distributedPlan validates opt for a sharded run and derives its plan.
// Sharded runs recover per shard (a lost shard is simply re-derived
// from the plan), so the whole-run checkpoint seam does not apply:
// EstimateOptions.Checkpoint and OnCheckpoint are rejected.
func distributedPlan(opt EstimateOptions, dopt DistributedOptions) (fleet.Plan, error) {
	if err := opt.Validate(); err != nil {
		return fleet.Plan{}, err
	}
	if opt.Checkpoint != nil {
		return fleet.Plan{}, errors.New("maxpower: sharded runs resume per shard; EstimateOptions.Checkpoint is not supported — re-run the plan instead")
	}
	if opt.OnCheckpoint != nil {
		return fleet.Plan{}, errors.New("maxpower: sharded runs checkpoint per shard; EstimateOptions.OnCheckpoint is not supported")
	}
	return shardPlan(opt, dopt), nil
}

// EstimateDistributed runs the estimator over src shard by shard on
// this machine — the single-node reference a fleet run must bit-match.
// Each shard runs through the same preamble and shard runner a worker
// uses (RunShard), so the records cannot depend on which process ran a
// shard. With a one-shard plan (ShardSize ≥ MaxHyperSamples) it
// degenerates to Run with the same options, bit for bit. When ctx is
// cancelled the run stops at the next hyper-sample boundary and returns
// the completed prefix folded into a partial Result (err stays nil),
// mirroring Run. Each record is added to one evt.Fold, once.
// EstimateOptions.Checkpoint and OnCheckpoint are rejected: sharded
// runs recover per shard.
func EstimateDistributed(ctx context.Context, src Source, opt EstimateOptions, dopt DistributedOptions) (Result, error) {
	plan, err := distributedPlan(opt, dopt)
	if err != nil {
		return Result{}, err
	}
	shards, err := plan.Shards()
	if err != nil {
		return Result{}, err
	}
	fold := evt.NewFold(opt.evtParams())
	for _, sh := range shards {
		_, err := RunShard(ctx, src, opt, sh, func(_ int, rec HyperRecord) bool {
			fold.Add(rec)
			res := fold.Result()
			if opt.Progress != nil {
				opt.Progress(res)
			}
			return !res.Converged
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				break // keep the folded prefix, like a cancelled sequential run
			}
			return Result{}, err
		}
		if fold.Result().Converged {
			break
		}
	}
	return fold.Result(), nil
}

// RunFleet runs the same sharded estimation as EstimateDistributed on a
// fleet: c dispatches the plan's shards to its workers and folds their
// records, so the Result bit-matches EstimateDistributed over the
// source job describes. job is the request the workers decode, and must
// carry opt's statistical options; jobID names the shards. When ctx is
// cancelled the completed prefix is folded into a partial Result (err
// stays nil), mirroring Run. Progress, when set, receives the fold after
// every shard that extends the completed prefix.
func RunFleet(ctx context.Context, c *fleet.Coordinator, jobID string, job json.RawMessage, opt EstimateOptions, dopt DistributedOptions) (Result, error) {
	plan, err := distributedPlan(opt, dopt)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, jobID, job, opt.evtParams(), plan, opt.Progress)
}

// RunShard executes one shard of a sharded estimation over src — the
// worker side of a fleet. onHyper, when non-nil, observes each
// completed hyper-sample (shard-local count and record); returning
// false stops the shard early. The records are a pure function of
// (source, options, shard), so any worker given the same shard produces
// identical output, for any Workers budget.
func RunShard(ctx context.Context, src Source, opt EstimateOptions, sh Shard, onHyper func(done int, rec HyperRecord) bool) ([]HyperRecord, error) {
	var recs []HyperRecord
	err := src.run(opt, func(s evt.Source) error {
		est, err := evt.New(s, opt.evtParams())
		if err != nil {
			return err
		}
		recs, err = fleet.RunShard(ctx, est, sh, onHyper)
		return err
	})
	return recs, err
}
