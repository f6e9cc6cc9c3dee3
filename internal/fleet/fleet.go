// Package fleet shards one maximum-power estimation job across many
// maxpowerd worker daemons and merges the results bit-identically.
//
// The estimator's outer loop is embarrassingly parallel: each
// hyper-sample is an independent MLE over m·n fresh unit draws, and the
// only sequential coupling is the Student-t stopping rule — pure
// arithmetic over the per-hyper-sample estimates (evt.Fold).
// fleet exploits that structure in three pieces:
//
//   - A Plan splits a job's hyper-sample budget into fixed-size shards
//     and derives each shard's RNG substream from the job seed with
//     stats.RNG.Jump (xoshiro256** long-jump, 2^128 steps apart), so
//     shard streams never overlap and shard 0 of a one-shard plan is
//     exactly the classic single-stream run.
//   - RunShard executes one shard's hyper-samples against any
//     evt-compatible source and returns transportable evt.HyperRecords.
//     Reassigning a shard ID to another worker re-derives the identical
//     records (the substream is a pure function of the plan), which is
//     what makes shard retry idempotent.
//   - A Coordinator fans shards out over HTTP to registered workers
//     (POST /v1/shards on each), polls per-shard progress, retries
//     failed / unreachable / timed-out shards on other workers, folds
//     each shard once, in global order, as the completed prefix reaches
//     it, and cancels the rest of the fleet as soon as the folded prefix
//     converges.
//
// Determinism contract: for a fixed Plan, the merged Result's
// statistical fields equal a single-node run consuming the same
// substream order (maxpower.EstimateDistributed) to the last bit — for
// any worker count, any completion order, and any pattern of retries,
// because the merge adds records by global hyper-sample index to the
// same evt.Fold the sequential loop advances.
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// DefaultShardSize is the hyper-samples per shard when a plan does not
// say otherwise: small enough that a converging job (typically k ≈ 5–30
// at the paper's ε = 5%) spreads across several workers, large enough
// to amortize dispatch.
const DefaultShardSize = 8

// Plan fixes how one job shards: it is the part of the distributed
// configuration that must be identical between a fleet run and the
// single-node reference for their results to bit-match.
type Plan struct {
	// Seed is the job's sampling seed; shard k's substream is
	// NewRNG(Seed) jumped k times.
	Seed uint64 `json:"seed"`
	// ShardSize is the hyper-samples per shard (the last shard may be
	// shorter). 0 = DefaultShardSize.
	ShardSize int `json:"shard_size"`
	// MaxHyperSamples is the job's total hyper-sample budget (the
	// estimator's cap, defaulted the same way evt.Config does).
	MaxHyperSamples int `json:"max_hyper_samples"`
}

// Shard is one dispatchable slice of a plan: hyper-samples
// [Start, Start+Count) of the job, drawn from the RNG substream that
// starts at state RNG.
type Shard struct {
	// Index is the shard's position in the plan; the merge orders
	// records by it.
	Index int `json:"index"`
	// Start is the global index of the shard's first hyper-sample.
	Start int `json:"start"`
	// Count is how many hyper-samples the shard runs.
	Count int `json:"count"`
	// RNG is the substream state the shard's first hyper-sample starts
	// from: the plan seed's origin state jumped Index times.
	RNG [4]uint64 `json:"rng"`
}

// Validate rejects plans no shard derivation can honor.
func (p Plan) Validate() error {
	if p.ShardSize < 0 {
		return fmt.Errorf("fleet: ShardSize must be non-negative (0 = default %d), got %d", DefaultShardSize, p.ShardSize)
	}
	if p.MaxHyperSamples <= 0 {
		return errors.New("fleet: plan needs a positive MaxHyperSamples")
	}
	return nil
}

// Shards derives the plan's shard list: ceil(MaxHyperSamples/ShardSize)
// shards, each with its jump-derived substream state. Derivation is a
// pure function of the plan, so a coordinator, a retrying worker, and
// the single-node reference all see identical shards.
func (p Plan) Shards() ([]Shard, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	size := p.ShardSize
	if size == 0 {
		size = DefaultShardSize
	}
	r := stats.NewRNG(p.Seed)
	var shards []Shard
	for start := 0; start < p.MaxHyperSamples; start += size {
		count := size
		if start+count > p.MaxHyperSamples {
			count = p.MaxHyperSamples - start
		}
		shards = append(shards, Shard{
			Index: len(shards),
			Start: start,
			Count: count,
			RNG:   r.State(),
		})
		r.Jump()
	}
	return shards, nil
}

// Validate rejects shards that cannot have come from a plan.
func (s Shard) Validate() error {
	if s.Index < 0 || s.Start < 0 {
		return fmt.Errorf("fleet: shard index/start must be non-negative, got %d/%d", s.Index, s.Start)
	}
	if s.Count <= 0 {
		return fmt.Errorf("fleet: shard needs a positive hyper-sample count, got %d", s.Count)
	}
	if s.RNG == ([4]uint64{}) {
		return errors.New("fleet: shard RNG state is all zero")
	}
	return nil
}
