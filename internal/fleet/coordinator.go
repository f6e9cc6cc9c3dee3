package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
)

// Coordinator fans one job's shards out to worker daemons and merges
// their records into the job Result. It carries no per-job state (safe
// for concurrent Run calls; only worker-health bookkeeping — the
// per-worker circuit breakers — persists across jobs) and deliberately
// trusts nothing about workers: any worker may run any shard, in any
// order, crashed or unreachable workers just cost a retry, and every
// record a worker returns must pass evt.HyperRecord.Validate before it
// is merged — the merged result is a pure function of the plan. Every
// worker call goes through one HTTP client with a 30 s per-call
// timeout, and a shard gets at most max(2·len(Workers), 4) attempts
// before the job fails.
type Coordinator struct {
	// Workers are the base URLs of registered worker daemons
	// (e.g. "http://10.0.0.7:8321"). Shard i is first offered to worker
	// i mod len(Workers); retries rotate from there.
	Workers []string
	// PollInterval is the per-shard status polling period (0 = 25 ms).
	PollInterval time.Duration
	// ShardTimeout bounds one dispatch attempt's wall time; a shard
	// that exceeds it is cancelled on that worker and retried on the
	// next (0 = no per-attempt cap).
	ShardTimeout time.Duration
	// RetryBackoff spaces retry attempts with capped jittered
	// exponential delays. The zero value is the default policy (on);
	// set Disabled for the immediate-rotation behavior.
	RetryBackoff Backoff
	// BreakerThreshold and BreakerCooldown configure the per-worker
	// circuit breakers: a worker failing Threshold consecutive attempts
	// (dispatches or health probes) is evicted from rotation until a
	// half-open probe after Cooldown succeeds. Zero values take the
	// Breaker defaults (3 failures, 5 s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Sleep is the waiting seam for retry backoff (nil = a real timer
	// honoring ctx). Tests inject a fake so backoff runs clock-free.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the clock seam for breakers (nil = time.Now), so breaker
	// tests advance a fake clock instead of sleeping.
	Now func() time.Time

	dispatched     atomic.Int64
	retried        atomic.Int64
	earlyCancelled atomic.Int64
	backoffNS      atomic.Int64
	breakerTrips   atomic.Int64

	mu       sync.Mutex
	breakers map[string]*Breaker
	slots    map[string]int // shard-pool size each worker last reported
}

// Stats is a point-in-time snapshot of the coordinator's counters.
type Stats struct {
	// ShardsDispatched counts shard submit attempts (retries included).
	ShardsDispatched int64
	// ShardsRetried counts re-dispatches after a failed, unreachable,
	// or timed-out attempt.
	ShardsRetried int64
	// ShardsCancelled counts outstanding shards cancelled by
	// convergence-driven early stop.
	ShardsCancelled int64
	// BackoffNS accumulates the retry backoff waited before
	// re-dispatches, in nanoseconds.
	BackoffNS int64
	// BreakerTrips counts worker evictions: breaker transitions to
	// open, from dispatch failures, failed half-open probes, or failed
	// health checks.
	BreakerTrips int64
	// WorkersOpen is the current number of evicted (open-breaker)
	// workers — a gauge, not a counter.
	WorkersOpen int64
}

// Stats returns the coordinator's cumulative counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		ShardsDispatched: c.dispatched.Load(),
		ShardsRetried:    c.retried.Load(),
		ShardsCancelled:  c.earlyCancelled.Load(),
		BackoffNS:        c.backoffNS.Load(),
		BreakerTrips:     c.breakerTrips.Load(),
	}
	now := c.now()
	c.mu.Lock()
	for _, b := range c.breakers {
		if b.State(now) == BreakerOpen {
			st.WorkersOpen++
		}
	}
	c.mu.Unlock()
	return st
}

func (c *Coordinator) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breakerFor returns (lazily creating) the named worker's breaker.
func (c *Coordinator) breakerFor(worker string) *Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breakers == nil {
		c.breakers = make(map[string]*Breaker)
	}
	b, ok := c.breakers[worker]
	if !ok {
		b = &Breaker{Threshold: c.BreakerThreshold, Cooldown: c.BreakerCooldown}
		c.breakers[worker] = b
	}
	return b
}

// pickWorker chooses the attempt's worker: the first candidate in
// rotation order (from shard index + attempt) whose breaker admits it.
// When every worker is evicted the rotation choice is used anyway — a
// coordinator with no healthy workers must still probe reality rather
// than deadlock — and the breaker ignores failures it didn't admit, so
// desperation attempts never push the half-open horizon out.
func (c *Coordinator) pickWorker(index, attempt int) string {
	n := len(c.Workers)
	now := c.now()
	for i := 0; i < n; i++ {
		w := c.Workers[(index+attempt+i)%n]
		if c.breakerFor(w).Allow(now) {
			return w
		}
	}
	return c.Workers[(index+attempt)%n]
}

// ProbeWorkers health-checks every registered worker once (GET
// /healthz) and feeds the outcomes to the per-worker breakers: a
// healthy response closes the worker's breaker immediately (re-
// admission), a failure counts toward eviction exactly like a failed
// dispatch. Coordinating managers call this on a timer, so dead workers
// are evicted between jobs too — not only after burning dispatch
// attempts on them — and recovered workers rejoin without waiting for a
// shard to probe them.
func (c *Coordinator) ProbeWorkers(ctx context.Context) {
	now := c.now()
	for _, w := range c.Workers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := workerClient.Do(req)
		healthy := err == nil && resp.StatusCode/100 == 2
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		b := c.breakerFor(w)
		if healthy {
			b.Success()
		} else if b.Failure(now) {
			c.breakerTrips.Add(1)
		}
	}
}

// noteSlots records the shard-pool size a worker reported in a
// submission reply (0: the worker reports none).
func (c *Coordinator) noteSlots(worker string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots == nil {
		c.slots = make(map[string]int)
	}
	c.slots[worker] = n
}

// capacity is how many shards the fleet runs at once: the shard-pool
// sizes the workers last reported, summed. It is 0 while some worker
// has not reported one (a coordinator's first job, or a worker that
// reports none), and Run then dispatches the whole plan.
func (c *Coordinator) capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.Workers {
		if c.slots[w] <= 0 {
			return 0
		}
		n += c.slots[w]
	}
	return n
}

// workerClient makes every call to a worker daemon.
var workerClient = &http.Client{Timeout: 30 * time.Second}

func (c *Coordinator) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 25 * time.Millisecond
}

// maxAttempts is how many attempts a shard gets before the job fails:
// two per worker, and at least 4.
func (c *Coordinator) maxAttempts() int {
	return max(2*len(c.Workers), 4)
}

// shardID names a shard globally: <jobID>-s<index>. The same job
// re-sharded by a retrying coordinator derives the same IDs, so workers
// can deduplicate double dispatch.
func shardID(jobID string, index int) string {
	return fmt.Sprintf("%s-s%d", jobID, index)
}

// Run shards the job per plan, executes the shards across the fleet,
// and returns the merged Result. job is the original job request
// payload, forwarded verbatim to workers; cfg must carry the same
// estimation parameters the job payload does (the coordinator folds
// with it, the workers fit with theirs). onProgress, when non-nil,
// receives the folded Result after every newly completed prefix shard.
//
// Shards are dispatched in plan order, at most max(capacity, prefix) of
// them past the completed prefix, capacity being the shard-pool sizes
// the workers report, summed; until every worker has reported one the
// whole plan is dispatched. The records of each shard that joins the
// completed prefix are added to one evt.Fold, once each, in plan order,
// and only a prefix that has not converged refills the window. So the
// fleet's pools stay full, nothing is dispatched at convergence, an
// early-converging job wastes at most one shard per pool slot, a long
// job's window grows with its prefix, and the fold costs O(1) per
// record however the shards land.
//
// Convergence-driven early stop: as soon as the folded prefix
// converges, the dispatched shards still outstanding are cancelled
// fleet-wide and the merged Result is returned — bit-identical to the
// single-node reference, which would never have drawn those
// hyper-samples either. When ctx is cancelled mid-run the completed
// prefix is folded into a partial Result (err stays nil), mirroring
// single-node cancellation.
func (c *Coordinator) Run(ctx context.Context, jobID string, job json.RawMessage, cfg evt.Config, plan Plan, onProgress func(evt.Result)) (evt.Result, error) {
	if len(c.Workers) == 0 {
		return evt.Result{}, errors.New("fleet: coordinator has no workers")
	}
	shards, err := plan.Shards()
	if err != nil {
		return evt.Result{}, err
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	type outcome struct {
		idx  int
		recs []evt.HyperRecord
		err  error
	}
	// Buffered to the shard count: late finishers never block after the
	// coordinator has already returned.
	ch := make(chan outcome, len(shards))
	results := make([][]evt.HyperRecord, len(shards))
	prefix := 0 // shards [0, prefix) are complete and folded
	next := 0   // shards [0, next) are dispatched
	fold := evt.NewFold(cfg)
	dispatch := func() {
		width := c.capacity()
		if width == 0 {
			width = len(shards)
		}
		for width = max(width, prefix); next < len(shards) && next-prefix < width; next++ {
			go func(sh Shard) {
				recs, err := c.dispatchShard(runCtx, jobID, job, cfg, sh)
				ch <- outcome{idx: sh.Index, recs: recs, err: err}
			}(shards[next])
		}
	}
	dispatch()
	for completed := 0; completed < len(shards); completed++ {
		oc := <-ch
		if ctx.Err() != nil {
			// Job-level cancel or deadline: stop the fleet and keep the
			// contiguous completed prefix as the partial estimate, exactly
			// as a cancelled single-node run keeps its completed
			// hyper-samples.
			c.cancelOutstanding(jobID, shards[:next], results)
			return fold.Result(), nil
		}
		if oc.err != nil {
			cancelRun()
			c.cancelOutstanding(jobID, shards[:next], results)
			return evt.Result{}, fmt.Errorf("fleet: shard %d: %w", oc.idx, oc.err)
		}
		results[oc.idx] = oc.recs
		folded := prefix
		for ; prefix < len(shards) && results[prefix] != nil; prefix++ {
			for _, rec := range results[prefix] {
				fold.Add(rec)
			}
		}
		if prefix == folded {
			continue
		}
		res := fold.Result()
		if onProgress != nil {
			onProgress(res)
		}
		if res.Converged {
			cancelRun()
			c.cancelOutstanding(jobID, shards[:next], results)
			return res, nil
		}
		dispatch()
	}
	return fold.Result(), nil
}

// dispatchShard drives one shard to completion: dispatch to a worker, poll,
// and on any failure — dispatch error, worker unreachable while
// polling, shard reported failed, attempt timeout — back off and try
// the next breaker-admitted worker, up to maxAttempts. Safe because
// shards are idempotent: the records are a pure function of the plan,
// and workers deduplicate by shard ID. Every attempt's outcome feeds
// the target worker's breaker, so a dead worker stops receiving
// attempts after BreakerThreshold failures instead of burning one
// attempt per shard forever.
func (c *Coordinator) dispatchShard(ctx context.Context, jobID string, job json.RawMessage, cfg evt.Config, sh Shard) ([]evt.HyperRecord, error) {
	req := ShardRequest{ID: shardID(jobID, sh.Index), Job: job, Shard: sh}
	attempts := c.maxAttempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a > 0 {
			c.retried.Add(1)
			// Capped jittered exponential backoff: a failed or queue-full
			// worker gets room to drain, and concurrent retries spread out
			// instead of stampeding the next worker in rotation.
			if d := c.RetryBackoff.Delay(a); d > 0 {
				c.backoffNS.Add(int64(d))
				if err := c.sleep(ctx, d); err != nil {
					return nil, err
				}
			}
		}
		worker := c.pickWorker(sh.Index, a)
		recs, err := c.attemptShard(ctx, worker, req, cfg, sh)
		if err == nil {
			c.breakerFor(worker).Success()
			return recs, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if c.breakerFor(worker).Failure(c.now()) {
			c.breakerTrips.Add(1)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fleet: gave up after %d attempts: %w", attempts, lastErr)
}

// attemptShard is one dispatch attempt against one worker: submit, poll
// until terminal, validate the records against cfg. The
// "fleet/shard-dispatch" fault point simulates dispatch-path failures
// (network partition, worker death between submit and poll) for chaos
// tests.
func (c *Coordinator) attemptShard(ctx context.Context, worker string, req ShardRequest, cfg evt.Config, sh Shard) ([]evt.HyperRecord, error) {
	if err := faultpoint.Hit("fleet/shard-dispatch"); err != nil {
		return nil, err
	}
	c.dispatched.Add(1)
	st, err := c.submitShard(ctx, worker, req)
	if err != nil {
		return nil, err
	}
	c.noteSlots(worker, st.Slots)
	var deadline <-chan time.Time
	if c.ShardTimeout > 0 {
		t := time.NewTimer(c.ShardTimeout)
		defer t.Stop()
		deadline = t.C
	}
	consecutiveErrs := 0
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			c.cancelShardOn(worker, req.ID)
			return nil, ctx.Err()
		case <-deadline:
			c.cancelShardOn(worker, req.ID)
			return nil, fmt.Errorf("fleet: shard %s timed out on %s after %s", req.ID, worker, c.ShardTimeout)
		case <-time.After(c.pollInterval()):
		}
		next, err := c.getShard(ctx, worker, req.ID)
		if err != nil {
			// A dead worker fails every poll; tolerate a couple of
			// transient errors before reassigning.
			if consecutiveErrs++; consecutiveErrs >= 3 {
				return nil, fmt.Errorf("fleet: lost worker %s: %w", worker, err)
			}
			continue
		}
		consecutiveErrs = 0
		st = next
	}
	if err := st.validateDone(sh, cfg); err != nil {
		return nil, err
	}
	return st.Records, nil
}

// cancelOutstanding best-effort-cancels every not-yet-merged shard of
// the dispatched ones on every worker (the coordinator does not track
// which worker currently holds a shard across retries, and DELETE of an
// unknown shard is a cheap 404).
func (c *Coordinator) cancelOutstanding(jobID string, shards []Shard, results [][]evt.HyperRecord) {
	for _, sh := range shards {
		if results[sh.Index] != nil {
			continue
		}
		c.earlyCancelled.Add(1)
		for _, worker := range c.Workers {
			c.cancelShardOn(worker, shardID(jobID, sh.Index))
		}
	}
}

// submitShard POSTs the shard to a worker and returns its status.
func (c *Coordinator) submitShard(ctx context.Context, worker string, req ShardRequest) (ShardStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ShardStatus{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return ShardStatus{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	return c.doShard(httpReq)
}

// getShard polls a shard's status.
func (c *Coordinator) getShard(ctx context.Context, worker, id string) (ShardStatus, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/shards/"+id, nil)
	if err != nil {
		return ShardStatus{}, err
	}
	return c.doShard(httpReq)
}

// cancelShardOn best-effort-cancels a shard on one worker. It uses a
// short background context: cancellation must still go out when the
// caller's context is already done (early stop, job cancel).
func (c *Coordinator) cancelShardOn(worker, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodDelete, worker+"/v1/shards/"+id, nil)
	if err != nil {
		return
	}
	resp, err := workerClient.Do(httpReq)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// doShard executes a shard API call and decodes the ShardStatus reply.
func (c *Coordinator) doShard(req *http.Request) (ShardStatus, error) {
	resp, err := workerClient.Do(req)
	if err != nil {
		return ShardStatus{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return ShardStatus{}, err
	}
	if resp.StatusCode/100 != 2 {
		return ShardStatus{}, fmt.Errorf("fleet: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, truncate(body, 200))
	}
	var st ShardStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return ShardStatus{}, fmt.Errorf("fleet: bad shard status from %s: %w", req.URL.Host, err)
	}
	return st, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
