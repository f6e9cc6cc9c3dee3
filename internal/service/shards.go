package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
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

// shardJob is the worker-side record of one fleet shard.
type shardJob struct {
	req       fleet.ShardRequest
	state     fleet.ShardState
	done      int
	records   []evt.HyperRecord
	errMsg    string
	created   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	cancelled bool
	// streaming is the decoded request's mode, set by its executor.
	streaming bool
}

func (s *shardJob) statusLocked() fleet.ShardStatus {
	st := fleet.ShardStatus{
		ID:    s.req.ID,
		State: s.state,
		Done:  s.done,
		Count: s.req.Shard.Count,
		Error: s.errMsg,
	}
	if s.state == fleet.ShardDone {
		st.Records = s.records
	}
	return st
}

// SubmitShard accepts one shard of a sharded job for execution,
// idempotently by shard ID: re-submitting a queued, running, or done
// shard returns its current status without re-running anything (safe
// because shard records are a pure function of the shard plan), while
// re-submitting a failed or cancelled shard re-enqueues it — that is
// the coordinator's retry path.
func (m *Manager) SubmitShard(req fleet.ShardRequest) (fleet.ShardStatus, error) {
	if err := req.Validate(); err != nil {
		return fleet.ShardStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.rejectedShutdown.Add(1)
		expRejectedShutdown.Add(1)
		return fleet.ShardStatus{}, ErrShuttingDown
	}
	if s, ok := m.shards[req.ID]; ok && s.state != fleet.ShardFailed && s.state != fleet.ShardCancelled {
		st := s.statusLocked()
		m.mu.Unlock()
		return st, nil
	}
	s := &shardJob{req: req, state: fleet.ShardQueued, created: time.Now()}
	select {
	case m.shardQueue <- s:
	default:
		m.mu.Unlock()
		m.rejectedFull.Add(1)
		expRejectedFull.Add(1)
		return fleet.ShardStatus{}, ErrQueueFull
	}
	if _, ok := m.shards[req.ID]; !ok {
		m.shardOrder = append(m.shardOrder, req.ID)
	}
	m.shards[req.ID] = s
	m.evictShardsLocked()
	st := s.statusLocked()
	m.mu.Unlock()
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
	switch s.state {
	case fleet.ShardQueued:
		s.cancelled = true
		s.state = fleet.ShardCancelled
		s.finished = time.Now()
		m.shardsCancelled.Add(1)
		expShardsCancelled.Add(1)
	case fleet.ShardRunning:
		s.cancelled = true
		if s.cancel != nil {
			s.cancel()
		}
	}
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

// shardWorker is the shard pool loop, the peer of worker() for fleet
// shards.
func (m *Manager) shardWorker() {
	defer m.wg.Done()
	for s := range m.shardQueue {
		m.runShard(s)
	}
}

// runShard executes one shard end to end and records its outcome,
// mirroring runJob: crash simulation, cancellation, panic isolation,
// and the "service/shard-run" fault point for chaos tests.
func (m *Manager) runShard(s *shardJob) {
	if m.crashed.Load() {
		return // simulated process death: the worker is "gone"
	}
	m.mu.Lock()
	if s.state != fleet.ShardQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	s.state = fleet.ShardRunning
	s.cancel = cancel
	m.mu.Unlock()

	m.workersBusy.Add(1)
	expWorkersBusy.Add(1)
	defer func() {
		m.workersBusy.Add(-1)
		expWorkersBusy.Add(-1)
	}()

	recs, err := m.executeShardRecover(ctx, s)

	if m.crashed.Load() {
		// A real crash records nothing past this point; the coordinator
		// sees the worker vanish and reassigns the shard elsewhere.
		return
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	s.finished = time.Now()
	switch {
	case err == nil && len(recs) == s.req.Shard.Count:
		s.state = fleet.ShardDone
		s.records = recs
		s.done = len(recs)
		m.shardsExecuted.Add(1)
		expShardsExecuted.Add(1)
		units := unitsOf(recs)
		m.unitsSimulated.Add(units)
		expUnitsSimulated.Add(units)
		if s.streaming {
			// As for a streaming job, every unit was a live pair
			// simulation.
			m.pairsSimulated.Add(units)
			expPairsSimulated.Add(units)
		}
	case ctx.Err() != nil || s.cancelled:
		s.state = fleet.ShardCancelled
		m.shardsCancelled.Add(1)
		expShardsCancelled.Add(1)
	case err != nil:
		s.state = fleet.ShardFailed
		s.errMsg = err.Error()
		m.shardsFailed.Add(1)
		expShardsFailed.Add(1)
	default:
		s.state = fleet.ShardFailed
		s.errMsg = fmt.Sprintf("shard stopped after %d/%d hyper-samples", len(recs), s.req.Shard.Count)
		m.shardsFailed.Add(1)
		expShardsFailed.Add(1)
	}
}

func unitsOf(recs []evt.HyperRecord) int64 {
	var n int64
	for _, r := range recs {
		n += int64(r.Units)
	}
	return n
}

// executeShardRecover runs executeShard behind the same recover barrier
// as jobs: a panic fails this one shard, the pool keeps serving.
func (m *Manager) executeShardRecover(ctx context.Context, s *shardJob) (recs []evt.HyperRecord, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			expPanics.Add(1)
			recs = nil
			err = fmt.Errorf("service: panic in shard %s: %v\n%s", s.req.ID, r, debug.Stack())
		}
	}()
	if ferr := faultpoint.Hit("service/shard-run"); ferr != nil {
		return nil, ferr
	}
	return m.executeShard(ctx, s)
}

// executeShard decodes the embedded job request and runs the shard's
// hyper-samples over its source, reusing the worker's circuit and
// population LRU caches (shards of the same job, and repeated jobs over
// the same spec, build the population once per worker).
func (m *Manager) executeShard(ctx context.Context, s *shardJob) ([]evt.HyperRecord, error) {
	req, _, err := decodeJobRequest(s.req.Job)
	if err != nil {
		return nil, fmt.Errorf("service: shard %s job payload: %w", s.req.ID, err)
	}
	src, opt, _, err := m.source(req)
	if err != nil {
		return nil, err
	}
	s.streaming = req.Streaming
	return maxpower.RunShard(ctx, src, opt, s.req.Shard, func(done int, _ maxpower.HyperRecord) bool {
		m.mu.Lock()
		s.done = done
		m.mu.Unlock()
		return ctx.Err() == nil
	})
}

// noteBatchFallbacks is the manager's OnBatchFallback sink: silent
// batch-to-scalar degradation in streaming simulation becomes a visible
// counter (batch_fallbacks in /v1/stats, maxpowerd_batch_fallbacks on
// /debug/vars).
func (m *Manager) noteBatchFallbacks(count int64, _ error) {
	m.batchFallbacks.Add(count)
	expBatchFallbacks.Add(count)
}

// executeFleet replaces local execution when the Manager runs in
// coordinator mode: the job is sharded by plan and fanned out to the
// fleet, and the merged Result — bit-identical to a single-node
// maxpower.EstimateDistributed with the same plan — is recorded as the
// job's outcome. Progress reflects the folded contiguous prefix. A
// journal-recovered job simply re-runs its plan: shard execution is
// idempotent, so the recovered result is the same bits.
func (m *Manager) executeFleet(ctx context.Context, j *job) (maxpower.Result, bool, error) {
	payload, err := json.Marshal(j.req)
	if err != nil {
		return maxpower.Result{}, false, err
	}
	opt := j.req.Options
	cfg := evt.Config{
		SampleSize:              opt.SampleSize,
		SamplesPerHyper:         opt.SamplesPerHyper,
		Epsilon:                 opt.Epsilon,
		Confidence:              opt.Confidence,
		MaxHyperSamples:         opt.MaxHyperSamples,
		DisableFiniteCorrection: opt.DisableFiniteCorrection,
	}
	plan := fleet.Plan{
		Seed:            opt.Seed,
		ShardSize:       m.cfg.ShardSize,
		MaxHyperSamples: cfg.Defaults().MaxHyperSamples,
	}
	res, err := m.fleetCoord.Run(ctx, j.id, payload, cfg, plan, func(p evt.Progress) {
		m.recordProgress(j, p)
	})
	return res, false, err
}

// FleetStats returns the coordinator counters, zero when this instance
// is not a coordinator.
func (m *Manager) FleetStats() fleet.Stats {
	if m.fleetCoord == nil {
		return fleet.Stats{}
	}
	return m.fleetCoord.Stats()
}
