package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
	"repro/internal/fleet"
	"repro/maxpower"
)

// maxShardsRetained bounds the terminal-shard table on a worker: the
// oldest finished shards are evicted beyond it. Live shards are never
// evicted. Coordinators poll results promptly, so retention only needs
// to survive transient coordinator outages, not archive history.
const maxShardsRetained = 1024

// shardJob is the worker-side record of one fleet shard: the job
// request its payload decoded to at submission, and its slice of the
// job's plan. Its lifecycle states have the fleet.ShardState names.
type shardJob struct {
	task
	job     JobRequest
	shard   fleet.Shard
	done    int
	records []evt.HyperRecord
}

func (s *shardJob) statusLocked() fleet.ShardStatus {
	st := fleet.ShardStatus{
		ID:    s.id,
		State: fleet.ShardState(s.state),
		Done:  s.done,
		Count: s.shard.Count,
		Error: s.errMsg,
	}
	if s.state == StateDone {
		st.Records = s.records
	}
	return st
}

// SubmitShard accepts one shard of a sharded job for execution,
// idempotently by shard ID: re-submitting a queued, running, or done
// shard returns its current status without re-running anything (safe
// because shard records are a pure function of the shard plan), while
// re-submitting a failed or cancelled shard re-enqueues it — that is
// the coordinator's retry path. The job payload is decoded and
// validated with the job schema here, once; a malformed request, or a
// shard reaching past its job's hyper-sample budget, is a *badRequest.
// The reply carries the worker's shard-pool size (Slots), from which
// the coordinator sizes its dispatch window.
func (m *Manager) SubmitShard(req fleet.ShardRequest) (fleet.ShardStatus, error) {
	if err := req.Validate(); err != nil {
		return fleet.ShardStatus{}, &badRequest{"invalid_request", err}
	}
	job, code, err := decodeJobRequest(req.Job)
	if err != nil {
		return fleet.ShardStatus{}, &badRequest{code, fmt.Errorf("job payload: %w", err)}
	}
	// A plan covers hyper-samples [0, budget); a shard past it is no
	// shard of any plan, and its count would otherwise bound nothing.
	if budget := (evt.Config{MaxHyperSamples: job.Options.MaxHyperSamples}).Defaults().MaxHyperSamples; req.Shard.Count > budget-req.Shard.Start {
		return fleet.ShardStatus{}, &badRequest{"invalid_request", fmt.Errorf("shard of %d hyper-samples from %d reaches past the job's budget of %d", req.Shard.Count, req.Shard.Start, budget)}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.count(evRejectedShutdown, 1)
		return fleet.ShardStatus{}, ErrShuttingDown
	}
	if s, ok := m.shards[req.ID]; ok && s.state != StateFailed && s.state != StateCancelled {
		st := s.statusLocked()
		m.mu.Unlock()
		st.Slots = m.cfg.Workers
		return st, nil
	}
	s := &shardJob{
		task:  task{kind: shardKind, id: req.ID, state: StateQueued, created: time.Now()},
		job:   job,
		shard: req.Shard,
	}
	select {
	case m.shardQueue <- s:
	default:
		m.mu.Unlock()
		m.count(evRejectedFull, 1)
		return fleet.ShardStatus{}, ErrQueueFull
	}
	if _, ok := m.shards[req.ID]; !ok {
		m.shardOrder = append(m.shardOrder, req.ID)
	}
	m.shards[req.ID] = s
	m.evictShardsLocked()
	st := s.statusLocked()
	m.mu.Unlock()
	st.Slots = m.cfg.Workers
	return st, nil
}

// ShardStatusOf returns a shard's current status snapshot.
func (m *Manager) ShardStatusOf(id string) (fleet.ShardStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.shards[id]
	if !ok {
		return fleet.ShardStatus{}, ErrNotFound
	}
	return s.statusLocked(), nil
}

// CancelShard stops a queued or running shard. Cancelling a terminal
// shard is a no-op returning its status — coordinators cancel
// best-effort during early stop, racing normal completion.
func (m *Manager) CancelShard(id string) (fleet.ShardStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.shards[id]
	if !ok {
		return fleet.ShardStatus{}, ErrNotFound
	}
	m.cancelLocked(&s.task)
	return s.statusLocked(), nil
}

// evictShardsLocked drops the oldest terminal shards beyond the
// retention cap (caller holds m.mu).
func (m *Manager) evictShardsLocked() {
	excess := len(m.shardOrder) - maxShardsRetained
	if excess <= 0 {
		return
	}
	kept := m.shardOrder[:0]
	for _, id := range m.shardOrder {
		if excess > 0 && m.shards[id].state.Terminal() {
			delete(m.shards, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.shardOrder = kept
}

// shardWorker is the shard pool loop, the peer of worker. The two
// pools stay apart: a coordinator's job waits on shards that may run on
// its own instance, so shards must not queue behind the jobs that wait
// on them.
func (m *Manager) shardWorker() {
	defer m.wg.Done()
	for s := range m.shardQueue {
		m.run(s, 0)
	}
}

// exec runs the shard's hyper-samples over its job's source, reusing the
// worker's circuit and population LRU caches (shards of the same job,
// and repeated jobs over the same spec, build the population once per
// worker).
func (s *shardJob) exec(ctx context.Context, m *Manager) outcome {
	if err := faultpoint.Hit("service/shard-run"); err != nil {
		return outcome{err: err}
	}
	src, opt, _, err := m.source(s.job)
	if err != nil {
		return outcome{err: err}
	}
	recs, err := maxpower.RunShard(ctx, src, opt, s.shard, func(done int, _ maxpower.HyperRecord) bool {
		m.mu.Lock()
		s.done = done
		m.mu.Unlock()
		return ctx.Err() == nil
	})
	return outcome{finished: err == nil && len(recs) == s.shard.Count, err: err, recs: recs}
}

// settle keeps a finished shard's records for the coordinator and adds
// their units to the counters.
func (s *shardJob) settle(m *Manager, o outcome) *record {
	if s.state == StateDone {
		s.records, s.done = o.recs, len(o.recs)
		var units int64
		for _, r := range o.recs {
			units += int64(r.Units)
		}
		m.count(evUnitsSimulated, units)
		if s.job.Streaming {
			// As for a streaming job, every unit was a live pair
			// simulation.
			m.count(evPairsSimulated, units)
		}
	}
	return nil
}

// executeFleet replaces local execution when the Manager runs in
// coordinator mode: maxpower.RunFleet shards the job by plan and fans it
// out to the fleet, and the merged Result — bit-identical to a
// single-node maxpower.EstimateDistributed with the same options and
// plan — is recorded as the job's outcome. Progress reflects the folded
// contiguous prefix. A journal-recovered job simply re-runs its plan:
// shard execution is idempotent, so the recovered result is the same
// bits.
func (m *Manager) executeFleet(ctx context.Context, j *job) (maxpower.Result, error) {
	payload, err := json.Marshal(j.req)
	if err != nil {
		return maxpower.Result{}, err
	}
	opt := j.req.Options.toLib()
	opt.Progress = func(p maxpower.Result) { m.recordProgress(j, p) }
	return maxpower.RunFleet(ctx, m.fleetCoord, j.id, payload, opt, maxpower.DistributedOptions{ShardSize: m.cfg.ShardSize})
}

// FleetStats returns the coordinator counters, zero when this instance
// is not a coordinator.
func (m *Manager) FleetStats() fleet.Stats {
	if m.fleetCoord == nil {
		return fleet.Stats{}
	}
	return m.fleetCoord.Stats()
}
