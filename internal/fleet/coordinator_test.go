package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
	"repro/internal/fleet"
	"repro/internal/vectorgen"
)

// fakeWorker is an in-process worker daemon speaking the /v1/shards
// wire protocol, executing shards with a local evt estimator. It
// implements the idempotency contract the real worker does: submits
// dedupe by shard ID, and failed/cancelled shards re-enqueue.
type fakeWorker struct {
	t        *testing.T
	pop      *vectorgen.Population
	cfg      evt.Config
	perHyper time.Duration // artificial per-hyper-sample latency
	failRuns int32         // first failRuns executions report "failed"
	// tamper, when set, rewrites the first record of shard 0 before the
	// shard reports done; tampered counts the rewrites.
	tamper   func(*evt.HyperRecord)
	tampered atomic.Int64

	mu     sync.Mutex
	shards map[string]*fakeShard
	srv    *httptest.Server

	hypers    atomic.Int64 // hyper-samples executed across all shards
	dieAfter  int64        // kill the whole worker after this many (0 = never)
	submits   atomic.Int64 // shard submissions received
	stopped   atomic.Int64 // cancels that stopped a queued or running shard
	unhealthy atomic.Bool  // /healthz reports 500 while set
}

type fakeShard struct {
	req    fleet.ShardRequest
	state  fleet.ShardState
	done   int
	recs   []evt.HyperRecord
	errMsg string
	cancel context.CancelFunc
}

func newFakeWorker(t *testing.T, pop *vectorgen.Population, cfg evt.Config) *fakeWorker {
	w := &fakeWorker{t: t, pop: pop, cfg: cfg, shards: map[string]*fakeShard{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards", w.handleSubmit)
	mux.HandleFunc("GET /v1/shards/{id}", w.handleStatus)
	mux.HandleFunc("DELETE /v1/shards/{id}", w.handleCancel)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.unhealthy.Load() {
			http.Error(rw, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.close)
	return w
}

func (w *fakeWorker) url() string { return w.srv.URL }

// close kills the worker: every in-flight and future request fails, as
// if the process died.
func (w *fakeWorker) close() {
	w.srv.CloseClientConnections()
	w.srv.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, fs := range w.shards {
		if fs.cancel != nil {
			fs.cancel()
		}
	}
}

func (w *fakeWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	w.submits.Add(1)
	var req fleet.ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	fs, ok := w.shards[req.ID]
	if ok && fs.state != fleet.ShardFailed && fs.state != fleet.ShardCancelled {
		st := w.statusLocked(fs)
		w.mu.Unlock()
		writeJSON(rw, http.StatusOK, st)
		return
	}
	fs = &fakeShard{req: req, state: fleet.ShardQueued}
	w.shards[req.ID] = fs
	w.startLocked(fs)
	st := w.statusLocked(fs)
	w.mu.Unlock()
	writeJSON(rw, http.StatusAccepted, st)
}

func (w *fakeWorker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	fs, ok := w.shards[r.PathValue("id")]
	if !ok {
		w.mu.Unlock()
		http.Error(rw, "no such shard", http.StatusNotFound)
		return
	}
	st := w.statusLocked(fs)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, st)
}

func (w *fakeWorker) handleCancel(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	fs, ok := w.shards[r.PathValue("id")]
	if ok && fs.cancel != nil {
		fs.cancel()
	}
	if ok && !fs.state.Terminal() {
		fs.state = fleet.ShardCancelled
		w.stopped.Add(1)
	}
	st := fleet.ShardStatus{}
	if ok {
		st = w.statusLocked(fs)
	}
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "no such shard", http.StatusNotFound)
		return
	}
	writeJSON(rw, http.StatusOK, st)
}

func (w *fakeWorker) statusLocked(fs *fakeShard) fleet.ShardStatus {
	st := fleet.ShardStatus{
		ID:    fs.req.ID,
		State: fs.state,
		Done:  fs.done,
		Count: fs.req.Shard.Count,
		Error: fs.errMsg,
	}
	if fs.state == fleet.ShardDone {
		st.Records = fs.recs
	}
	return st
}

// startLocked launches the shard's executor goroutine (w.mu held).
func (w *fakeWorker) startLocked(fs *fakeShard) {
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	fs.state = fleet.ShardRunning
	if atomic.AddInt32(&w.failRuns, -1) >= 0 {
		fs.state = fleet.ShardFailed
		fs.errMsg = "injected execution failure"
		return
	}
	go func() {
		est, err := evt.New(w.pop, w.cfg)
		if err != nil {
			w.finish(fs, nil, err)
			return
		}
		recs, err := fleet.RunShard(ctx, est, fs.req.Shard, func(done int, _ evt.HyperRecord) bool {
			if w.perHyper > 0 {
				// Stagger by shard index so tail shards are strictly
				// slower than the converging prefix — otherwise all
				// shards finish near-simultaneously and early-stop
				// cancellation races the final merges.
				time.Sleep(w.perHyper * time.Duration(1+fs.req.Shard.Index))
			}
			if w.dieAfter > 0 && w.hypers.Add(1) == w.dieAfter {
				go w.close()
				return false
			}
			w.mu.Lock()
			fs.done = done
			w.mu.Unlock()
			return ctx.Err() == nil
		})
		w.finish(fs, recs, err)
	}()
}

func (w *fakeWorker) finish(fs *fakeShard, recs []evt.HyperRecord, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		fs.state = fleet.ShardCancelled
	case err != nil:
		fs.state = fleet.ShardFailed
		fs.errMsg = err.Error()
	case len(recs) < fs.req.Shard.Count:
		// Stopped early (worker death mid-shard): never report done.
		if !fs.state.Terminal() {
			fs.state = fleet.ShardFailed
			fs.errMsg = "shard stopped early"
		}
	default:
		if w.tamper != nil && fs.req.Shard.Index == 0 {
			recs = append([]evt.HyperRecord(nil), recs...)
			w.tamper(&recs[0])
			w.tampered.Add(1)
		}
		fs.state = fleet.ShardDone
		fs.recs = recs
		fs.done = len(recs)
	}
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v)
}

// fleetFixture is the shared scenario: a job that converges mid-plan,
// so early stop, retries, and merge order all get exercised.
func fleetFixture() (*vectorgen.Population, evt.Config, fleet.Plan) {
	pop := testPopulation(20000, 31)
	cfg := evt.Config{Epsilon: 0.01, MaxHyperSamples: 40}
	plan := fleet.Plan{Seed: 5, ShardSize: 4, MaxHyperSamples: 40}
	return pop, cfg, plan
}

func runCoordinator(t *testing.T, c *fleet.Coordinator, cfg evt.Config, plan fleet.Plan) evt.Result {
	t.Helper()
	res, err := c.Run(context.Background(), "job-test", json.RawMessage(`{"circuit":"test"}`), cfg, plan, nil)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	return res
}

// TestCoordinatorBitIdentical: the merged fleet result equals the
// single-node sharded reference bit for bit, for 1, 2, and 4 workers.
func TestCoordinatorBitIdentical(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)
	if !want.Converged {
		t.Fatal("fixture must converge for early stop to matter")
	}
	for _, n := range []int{1, 2, 4} {
		workers := make([]string, n)
		for i := range workers {
			workers[i] = newFakeWorker(t, pop, cfg).url()
		}
		c := &fleet.Coordinator{Workers: workers, PollInterval: 2 * time.Millisecond}
		got := runCoordinator(t, c, cfg, plan)
		if statFields(got) != statFields(want) {
			t.Errorf("%d workers: fleet result diverged:\n got  %+v\n want %+v",
				n, statFields(got), statFields(want))
		}
		if st := c.Stats(); st.ShardsDispatched == 0 {
			t.Errorf("%d workers: no shards dispatched?", n)
		}
	}
}

// TestCoordinatorEarlyStopCancels: once the folded prefix converges,
// outstanding shards are cancelled rather than run to completion, and
// the cancels reach shards the worker is still running.
func TestCoordinatorEarlyStopCancels(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)

	w := newFakeWorker(t, pop, cfg)
	w.perHyper = time.Millisecond // slow enough that tail shards are still running
	c := &fleet.Coordinator{Workers: []string{w.url()}, PollInterval: 2 * time.Millisecond}
	got := runCoordinator(t, c, cfg, plan)
	if statFields(got) != statFields(want) {
		t.Errorf("early-stopped fleet result diverged:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
	if st := c.Stats(); st.ShardsCancelled == 0 {
		t.Error("expected convergence-driven early stop to cancel tail shards")
	}
	if w.stopped.Load() == 0 {
		t.Error("early stop cancelled no shard the worker was running")
	}
}

// TestCoordinatorRetriesFailedShards: a worker that fails its first
// executions forces retries; the merged result is unchanged because
// shard re-execution is idempotent.
func TestCoordinatorRetriesFailedShards(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)

	flaky := newFakeWorker(t, pop, cfg)
	flaky.failRuns = 2
	healthy := newFakeWorker(t, pop, cfg)
	c := &fleet.Coordinator{Workers: []string{flaky.url(), healthy.url()}, PollInterval: 2 * time.Millisecond}
	got := runCoordinator(t, c, cfg, plan)
	if statFields(got) != statFields(want) {
		t.Errorf("fleet result diverged after retries:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
	if st := c.Stats(); st.ShardsRetried == 0 {
		t.Error("expected failed executions to be retried")
	}
}

// TestCoordinatorRejectsTamperedRecords: a worker whose done shard
// carries one record that no hyper-sample can produce fails that
// attempt. The shard runs again on the other worker, the tampering
// worker's breaker counts the failure, and the merged result is the
// reference's bit for bit.
func TestCoordinatorRejectsTamperedRecords(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)
	for _, tc := range []struct {
		name   string
		tamper func(*evt.HyperRecord)
	}{
		{"units not whole attempts", func(r *evt.HyperRecord) { r.Units++ }},
		{"units past the retries", func(r *evt.HyperRecord) { r.Units *= 6 }},
		{"estimate below observed max", func(r *evt.HyperRecord) { r.Estimate = r.ObservedMax / 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := newFakeWorker(t, pop, cfg)
			bad.tamper = tc.tamper
			good := newFakeWorker(t, pop, cfg)
			c := &fleet.Coordinator{
				Workers:          []string{bad.url(), good.url()},
				PollInterval:     2 * time.Millisecond,
				BreakerThreshold: 1,
			}
			got := runCoordinator(t, c, cfg, plan)
			if bad.tampered.Load() == 0 {
				t.Fatal("the worker tampered with no record")
			}
			if statFields(got) != statFields(want) {
				t.Errorf("fleet result took a tampered record:\n got  %+v\n want %+v",
					statFields(got), statFields(want))
			}
			if st := c.Stats(); st.ShardsRetried == 0 || st.BreakerTrips == 0 {
				t.Errorf("retried %d shards, tripped %d breakers; want the tampered shard retried and its worker's breaker tripped",
					st.ShardsRetried, st.BreakerTrips)
			}
		})
	}
}

// TestCoordinatorReassignsDeadWorker: a worker that dies mid-shard
// (connections severed, all subsequent requests fail) has its shards
// reassigned, and the merged result still bit-matches the reference.
func TestCoordinatorReassignsDeadWorker(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)

	dying := newFakeWorker(t, pop, cfg)
	dying.perHyper = time.Millisecond
	dying.dieAfter = 3 // dies during its first shard
	survivor := newFakeWorker(t, pop, cfg)
	c := &fleet.Coordinator{Workers: []string{dying.url(), survivor.url()}, PollInterval: 2 * time.Millisecond}
	got := runCoordinator(t, c, cfg, plan)
	if statFields(got) != statFields(want) {
		t.Errorf("fleet result diverged after worker death:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
	if st := c.Stats(); st.ShardsRetried == 0 {
		t.Error("expected the dead worker's shards to be reassigned")
	}
}

// TestCoordinatorDispatchFaultpoint: the fleet/shard-dispatch chaos
// seam injects dispatch failures; retries absorb them without touching
// the result.
func TestCoordinatorDispatchFaultpoint(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	want := referenceRun(t, pop, cfg, plan)

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("fleet/shard-dispatch", 2, func() error {
		return errors.New("injected dispatch failure")
	})

	w1 := newFakeWorker(t, pop, cfg)
	w2 := newFakeWorker(t, pop, cfg)
	c := &fleet.Coordinator{Workers: []string{w1.url(), w2.url()}, PollInterval: 2 * time.Millisecond}
	got := runCoordinator(t, c, cfg, plan)
	if statFields(got) != statFields(want) {
		t.Errorf("fleet result diverged under dispatch faults:\n got  %+v\n want %+v",
			statFields(got), statFields(want))
	}
	if st := c.Stats(); st.ShardsRetried < 2 {
		t.Errorf("ShardsRetried = %d, want >= 2 (one per injected fault)", st.ShardsRetried)
	}
}

// TestCoordinatorExhaustsAttempts: a fleet where every execution fails
// surfaces a job error instead of hanging or fabricating records, after
// max(2·workers, 4) attempts on its first shard.
func TestCoordinatorExhaustsAttempts(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	w := newFakeWorker(t, pop, cfg)
	w.failRuns = 1 << 20 // every execution fails
	c := &fleet.Coordinator{Workers: []string{w.url()}, PollInterval: 2 * time.Millisecond}
	_, err := c.Run(context.Background(), "job-doomed", json.RawMessage(`{}`), cfg, plan, nil)
	if err == nil {
		t.Fatal("expected a job error when every shard execution fails")
	}
	if !strings.Contains(err.Error(), "gave up after 4 attempts") {
		t.Errorf("error %q, want one worker's shard given up after 4 attempts", err)
	}
}

// TestCoordinatorCancelReturnsPartial: cancelling the job context
// mid-run folds the completed prefix into a partial result with no
// error, mirroring single-node cancellation.
func TestCoordinatorCancelReturnsPartial(t *testing.T) {
	pop, cfg, plan := fleetFixture()
	w := newFakeWorker(t, pop, cfg)
	w.perHyper = 2 * time.Millisecond
	c := &fleet.Coordinator{Workers: []string{w.url()}, PollInterval: 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res, err := c.Run(ctx, "job-cancel", json.RawMessage(`{}`), cfg, plan, func(evt.Result) {
		once.Do(cancel)
	})
	if err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
	if res.Converged && res.HyperSamples >= plan.MaxHyperSamples {
		t.Error("cancel had no effect: full run completed")
	}
}

// TestCoordinatorNoWorkers: a coordinator without workers refuses the
// job up front.
func TestCoordinatorNoWorkers(t *testing.T) {
	_, cfg, plan := fleetFixture()
	c := &fleet.Coordinator{}
	if _, err := c.Run(context.Background(), "job-none", nil, cfg, plan, nil); err == nil {
		t.Fatal("expected an error with no registered workers")
	}
}

// TestCoordinatorLongPlan: a plan that never converges, 8,192
// hyper-samples in 1,024 shards of 8, bit-matches the reference well
// inside its deadline. The worker answers each submission with its
// shard's records, and answers shard i only once the coordinator has
// folded shards [0, i), so every shard extends the completed prefix on
// its own, the way shards land on a busy fleet. The coordinator adds
// each shard's records to its fold once; re-folding the whole prefix at
// every shard took about 96 s of folding alone at this size. m = 3 and
// n = 2 keep each hyper-sample cheap.
func TestCoordinatorLongPlan(t *testing.T) {
	pop := testPopulation(2000, 31)
	cfg := evt.Config{SampleSize: 2, SamplesPerHyper: 3, Epsilon: 1e-9, MaxHyperSamples: 8192}
	plan := fleet.Plan{Seed: 5, ShardSize: 8, MaxHyperSamples: 8192}
	want := referenceRun(t, pop, cfg, plan)
	if want.Converged || want.HyperSamples != plan.MaxHyperSamples {
		t.Fatalf("reference converged %v at k=%d; the plan must run its whole budget", want.Converged, want.HyperSamples)
	}

	// turn[i] is closed once the coordinator has folded shards [0, i).
	turn := make([]chan struct{}, plan.MaxHyperSamples/plan.ShardSize+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	worker := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req fleet.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		est, err := evt.New(pop, cfg)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		recs, err := fleet.RunShard(r.Context(), est, req.Shard, nil)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		select {
		case <-turn[req.Shard.Index]:
		case <-r.Context().Done():
			return
		}
		writeJSON(rw, http.StatusOK, fleet.ShardStatus{
			ID: req.ID, State: fleet.ShardDone, Done: len(recs), Count: req.Shard.Count, Records: recs,
		})
	}))
	defer worker.Close()

	c := &fleet.Coordinator{Workers: []string{worker.URL}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	got, err := c.Run(ctx, "job-long", json.RawMessage(`{}`), cfg, plan, func(res evt.Result) {
		close(turn[res.HyperSamples/plan.ShardSize])
	})
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if statFields(got) != statFields(want) {
		t.Errorf("long plan diverged after %v:\n got  %+v\n want %+v", time.Since(start), statFields(got), statFields(want))
	}
}
