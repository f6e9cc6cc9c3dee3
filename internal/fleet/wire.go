package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/evt"
)

// ShardState is a shard's lifecycle phase on a worker, mirroring the
// job lifecycle: queued → running → done | failed | cancelled.
type ShardState string

// Shard lifecycle states.
const (
	ShardQueued    ShardState = "queued"
	ShardRunning   ShardState = "running"
	ShardDone      ShardState = "done"
	ShardFailed    ShardState = "failed"
	ShardCancelled ShardState = "cancelled"
)

// Terminal reports whether the state is final.
func (s ShardState) Terminal() bool {
	return s == ShardDone || s == ShardFailed || s == ShardCancelled
}

// ShardRequest is the POST /v1/shards body: one shard of one job. Job
// is the coordinator's original job request verbatim (the worker
// decodes it with its own schema), so fleet stays agnostic of job
// internals. ID is globally unique per (job, shard index); submits are
// idempotent by it — re-submitting a queued/running/done shard returns
// its current status instead of re-running it, and re-submitting a
// failed or cancelled one re-enqueues it (that is the retry path).
type ShardRequest struct {
	ID    string          `json:"id"`
	Job   json.RawMessage `json:"job"`
	Shard Shard           `json:"shard"`
}

// Validate rejects malformed shard submissions at the worker edge.
func (r ShardRequest) Validate() error {
	if r.ID == "" {
		return errors.New("fleet: shard request needs an id")
	}
	if len(r.Job) == 0 {
		return errors.New("fleet: shard request needs a job payload")
	}
	return r.Shard.Validate()
}

// ShardStatus is the GET /v1/shards/{id} body: lifecycle state,
// shard-local progress, and — once done — the hyper-sample records the
// coordinator merges.
type ShardStatus struct {
	ID    string     `json:"id"`
	State ShardState `json:"state"`
	// Done is hyper-samples completed so far; Count is the shard total.
	Done  int `json:"done"`
	Count int `json:"count"`
	// Records is present only when State == done.
	Records []evt.HyperRecord `json:"records,omitempty"`
	Error   string            `json:"error,omitempty"`
	// Slots is the worker's shard-pool size, how many shards it runs at
	// once, reported in its reply to a submission; coordinators size
	// their dispatch window from it.
	Slots int `json:"slots,omitempty"`
}

// validateDone checks a worker's terminal payload before the
// coordinator trusts it for the merge: the state, the record count, and
// every record against the run's configuration. The records crossed a
// network from another process, so none is trusted unchecked.
func (st ShardStatus) validateDone(sh Shard, cfg evt.Config) error {
	if st.State != ShardDone {
		return fmt.Errorf("fleet: shard %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Records) != sh.Count {
		return fmt.Errorf("fleet: shard %s returned %d records, want %d", st.ID, len(st.Records), sh.Count)
	}
	for i, rec := range st.Records {
		if err := rec.Validate(cfg); err != nil {
			return fmt.Errorf("fleet: shard %s record %d: %w", st.ID, i, err)
		}
	}
	return nil
}
