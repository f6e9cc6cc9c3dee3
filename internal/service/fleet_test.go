package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/fleet"
	"repro/maxpower"
)

// fleetJobRequest is the shared scenario: a C432 population job whose
// options give a plan of several shards with convergence mid-plan.
func fleetJobRequest() JobRequest {
	return JobRequest{
		Circuit:    "C432",
		Population: PopulationSpec{Size: 2000, Seed: 5},
		Options:    EstimateOptions{Seed: 13, Epsilon: 0.03, MaxHyperSamples: 24},
	}
}

// fleetReference computes the single-node sharded reference the fleet
// must bit-match: maxpower.EstimateDistributed over the same source
// (the built population, or the circuit streamed), options, and shard
// plan.
func fleetReference(t *testing.T, req JobRequest, shardSize int) maxpower.Result {
	t.Helper()
	c, err := maxpower.Circuit(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	src := maxpower.Stream(c, req.Population.toLib(0))
	if !req.Streaming {
		pop, err := maxpower.BuildPopulation(c, req.Population.toLib(0))
		if err != nil {
			t.Fatal(err)
		}
		src = maxpower.FromPopulation(pop)
	}
	res, err := maxpower.EstimateDistributed(context.Background(), src, req.Options.toLib(), maxpower.DistributedOptions{ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertResultMatches compares a wire JobResult against a library Result
// bit for bit (through the same finite() mapping the wire applies).
func assertResultMatches(t *testing.T, label string, got JobResult, want maxpower.Result) {
	t.Helper()
	if got.Estimate != finite(want.Estimate) || got.CILow != finite(want.CILow) ||
		got.CIHigh != finite(want.CIHigh) || got.RelErr != finite(want.RelErr) ||
		got.ObservedMax != finite(want.ObservedMax) || got.SigmaSq != finite(want.SigmaSq) ||
		got.HyperSamples != want.HyperSamples || got.Units != want.Units ||
		got.Converged != want.Converged {
		t.Errorf("%s: fleet result diverged from single-node reference:\n got  %+v\n want %+v", label, got, want)
	}
}

// newFleet spins up n worker servers plus a coordinator wired to them,
// all in-process.
func newFleet(t *testing.T, n, shardSize int) (*httptest.Server, *Manager, []*Manager, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	mgrs := make([]*Manager, n)
	srvs := make([]*httptest.Server, n)
	for i := range urls {
		srv, mgr := newTestServer(t, ManagerConfig{Workers: 2, CacheSize: 4})
		urls[i], mgrs[i], srvs[i] = srv.URL, mgr, srv
	}
	coord, coordMgr := newTestServer(t, ManagerConfig{
		Workers:      2,
		FleetWorkers: urls,
		ShardSize:    shardSize,
	})
	return coord, coordMgr, mgrs, srvs
}

// TestFleetBitIdenticalAcrossWorkerCounts is the acceptance test: a job
// sharded across 1, 2, and 4 workers merges to the exact bits of a
// direct single-node maxpower.EstimateDistributed with the same plan.
func TestFleetBitIdenticalAcrossWorkerCounts(t *testing.T) {
	req := fleetJobRequest()
	const shardSize = 3
	want := fleetReference(t, req, shardSize)
	if !want.Converged {
		t.Fatal("fixture must converge mid-plan for the scenario to be meaningful")
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			coord, _, workerMgrs, _ := newFleet(t, n, shardSize)
			id := submitJob(t, coord, req)
			st := waitTerminal(t, coord, id)
			if st.State != StateDone {
				t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
			}
			assertResultMatches(t, fmt.Sprintf("%d workers", n), fetchResult(t, coord, id), want)
			executed := int64(0)
			for _, m := range workerMgrs {
				executed += m.Stats().ShardsExecuted
			}
			if executed == 0 {
				t.Error("no worker executed any shard")
			}
			if st.Progress == nil || !st.Progress.Converged {
				t.Error("coordinator job progress never reflected convergence")
			}
		})
	}
}

// TestFleetEarlyStop: the coordinator stops the plan at convergence —
// the merged run uses fewer hyper-samples than the plan's budget, and
// the result still bit-matches the reference (which stops at the same
// point by construction).
func TestFleetEarlyStop(t *testing.T) {
	req := fleetJobRequest()
	want := fleetReference(t, req, 3)
	if !want.Converged || want.HyperSamples >= 24 {
		t.Fatalf("fixture must converge before the budget (got k=%d)", want.HyperSamples)
	}
	coord, coordMgr, _, _ := newFleet(t, 2, 3)
	id := submitJob(t, coord, req)
	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
	}
	res := fetchResult(t, coord, id)
	assertResultMatches(t, "early stop", res, want)
	if res.HyperSamples >= 24 {
		t.Errorf("early stop had no effect: merged run used all %d hyper-samples", res.HyperSamples)
	}
	if d := coordMgr.Stats().FleetShardsDispatched; d == 0 {
		t.Error("coordinator dispatched no shards")
	}
}

// TestFleetDispatchBound holds a coordinator's dispatch window: a job
// at the default budget of 200 hyper-samples in shards of 3 (67 shards)
// on two workers converges a few shards in, and by then the coordinator
// may have dispatched at most prefix + max(slots, prefix) shards, prefix
// being the shards its result folds and slots the workers' shard-pool
// sizes, summed. The coordinator learns the pool sizes from the replies
// to its submissions, so a first job teaches them. The result still
// matches maxpower.EstimateDistributed bit for bit.
func TestFleetDispatchBound(t *testing.T) {
	req := fleetJobRequest()
	req.Options.MaxHyperSamples = 0 // the default budget
	const shardSize, workers = 3, 2
	want := fleetReference(t, req, shardSize)
	if !want.Converged || want.HyperSamples > 60 {
		t.Fatalf("fixture must converge within 20 of its 67 shards (got k=%d, converged %v)", want.HyperSamples, want.Converged)
	}
	coord, coordMgr, workerMgrs, _ := newFleet(t, workers, shardSize)
	if st := waitTerminal(t, coord, submitJob(t, coord, fleetJobRequest())); st.State != StateDone {
		t.Fatalf("first fleet job finished %s: %s", st.State, st.Error)
	}
	dispatchedBefore, executedBefore := coordMgr.Stats().FleetShardsDispatched, int64(0)
	for _, m := range workerMgrs {
		executedBefore += m.Stats().ShardsExecuted
	}
	id := submitJob(t, coord, req)
	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
	}
	assertResultMatches(t, "bounded dispatch", fetchResult(t, coord, id), want)
	prefix := (want.HyperSamples + shardSize - 1) / shardSize
	dispatched := coordMgr.Stats().FleetShardsDispatched - dispatchedBefore
	executed, slots := -executedBefore, 0
	for _, m := range workerMgrs {
		executed += m.Stats().ShardsExecuted
		slots += m.cfg.Workers
	}
	t.Logf("converged at k=%d (%d shards), %d shards dispatched, %d executed", want.HyperSamples, prefix, dispatched, executed)
	if bound := int64(prefix + max(slots, prefix)); dispatched > bound {
		t.Errorf("%d shards dispatched for a %d-shard prefix, want at most %d", dispatched, prefix, bound)
	}
}

// TestFleetShardRunFaultRetries: the "service/shard-run" fault point
// fails the first shard executions on the workers; the coordinator
// retries them (idempotently, by shard ID) and the merged result is
// unchanged.
func TestFleetShardRunFaultRetries(t *testing.T) {
	req := fleetJobRequest()
	want := fleetReference(t, req, 3)

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service/shard-run", 2, func() error {
		return errors.New("injected shard execution failure")
	})

	coord, coordMgr, workerMgrs, _ := newFleet(t, 2, 3)
	id := submitJob(t, coord, req)
	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
	}
	assertResultMatches(t, "shard-run fault", fetchResult(t, coord, id), want)
	if coordMgr.Stats().FleetShardsRetried == 0 {
		t.Error("expected the coordinator to retry the failed shards")
	}
	failed := int64(0)
	for _, m := range workerMgrs {
		failed += m.Stats().ShardsFailed
	}
	if failed == 0 {
		t.Error("expected worker-side shard failures to be counted")
	}
}

// TestFleetDispatchFaultpoint: the coordinator-side chaos seam — the
// "fleet/shard-dispatch" fault kills dispatch attempts before they
// reach a worker; retries rotate and the result is unchanged.
func TestFleetDispatchFaultpoint(t *testing.T) {
	req := fleetJobRequest()
	want := fleetReference(t, req, 3)

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("fleet/shard-dispatch", 3, func() error {
		return errors.New("injected dispatch failure")
	})

	coord, coordMgr, _, _ := newFleet(t, 2, 3)
	id := submitJob(t, coord, req)
	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
	}
	assertResultMatches(t, "dispatch fault", fetchResult(t, coord, id), want)
	if r := coordMgr.Stats().FleetShardsRetried; r < 3 {
		t.Errorf("FleetShardsRetried = %d, want >= 3", r)
	}
}

// TestFleetWorkerDeathReassigns is the kill-mid-shard chaos case: one
// worker dies (process crash semantics: in-flight shards vanish, every
// subsequent request fails) while the job runs; the coordinator
// reassigns its shards to the survivor and the merged result still
// bit-matches the reference.
func TestFleetWorkerDeathReassigns(t *testing.T) {
	req := fleetJobRequest()
	want := fleetReference(t, req, 3)

	coord, coordMgr, workerMgrs, workerSrvs := newFleet(t, 2, 3)
	id := submitJob(t, coord, req)

	// Wait until the doomed worker has accepted at least one shard, then
	// kill it mid-flight.
	victim, victimSrv := workerMgrs[0], workerSrvs[0]
	deadline := time.Now().Add(30 * time.Second)
	for {
		victim.mu.Lock()
		accepted := len(victim.shards)
		victim.mu.Unlock()
		if accepted > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim worker never received a shard")
		}
		time.Sleep(time.Millisecond)
	}
	victim.killForTest()
	victimSrv.Close()

	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet job finished %s: %s", st.State, st.Error)
	}
	assertResultMatches(t, "worker death", fetchResult(t, coord, id), want)
	if coordMgr.Stats().FleetShardsRetried == 0 {
		t.Error("expected the dead worker's shards to be reassigned")
	}
}

// TestFleetStreamingJob: sharded streaming estimation (no precomputed
// population) merges to the same bits as the single-node streaming
// reference.
func TestFleetStreamingJob(t *testing.T) {
	req := JobRequest{
		Circuit:    "C432",
		Population: PopulationSpec{Size: 2000, Seed: 5},
		Options:    EstimateOptions{Seed: 13, Epsilon: 0.0001, MaxHyperSamples: 6, Workers: 1},
		Streaming:  true,
	}
	want := fleetReference(t, req, 2)

	coord, _, _, _ := newFleet(t, 2, 2)
	id := submitJob(t, coord, req)
	st := waitTerminal(t, coord, id)
	if st.State != StateDone {
		t.Fatalf("fleet streaming job finished %s: %s", st.State, st.Error)
	}
	assertResultMatches(t, "streaming", fetchResult(t, coord, id), want)
}

// TestShardPairsSimulated: a worker counts a finished streaming shard
// the way it counts a streaming job — every unit was a live pair
// simulation — while a population shard adds only its population's
// build to pairs_simulated.
func TestShardPairsSimulated(t *testing.T) {
	for _, streaming := range []bool{true, false} {
		req := fleetJobRequest()
		req.Streaming = streaming
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := maxpower.PlanShards(req.Options.toLib(), maxpower.DistributedOptions{ShardSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, mgr := newTestServer(t, ManagerConfig{Workers: 1})
		if _, err := mgr.SubmitShard(fleet.ShardRequest{ID: "j-s0", Job: payload, Shard: shards[0]}); err != nil {
			t.Fatal(err)
		}
		st := waitShardTerminal(t, mgr, "j-s0")
		if st.State != fleet.ShardDone {
			t.Fatalf("streaming=%v: shard finished %s: %s", streaming, st.State, st.Error)
		}
		units := int64(0)
		for _, rec := range st.Records {
			units += int64(rec.Units)
		}
		stats := serviceStats(t, srv)
		want := units
		if !streaming {
			want = int64(req.Population.Size)
		}
		if stats.UnitsSimulated != units || stats.PairsSimulated != want {
			t.Errorf("streaming=%v: units_simulated %d, pairs_simulated %d; want %d and %d",
				streaming, stats.UnitsSimulated, stats.PairsSimulated, units, want)
		}
	}
}

// waitShardTerminal polls a shard on mgr until it is terminal.
func waitShardTerminal(t *testing.T, mgr *Manager, id string) fleet.ShardStatus {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		st, err := mgr.ShardStatusOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
	}
	t.Fatalf("shard %s never finished", id)
	return fleet.ShardStatus{}
}

// TestShardLifecycle drives the worker side of a fleet through
// Manager.SubmitShard on one shard worker: a panic at the
// "service/shard-run" fault point fails only its own shard, with the
// message and stack in the error; the next shard returns the records
// maxpower.RunShard gives; a queued shard cancels at once; and a running
// shard, held at the fault point, ends cancelled and runs to done when
// submitted again.
func TestShardLifecycle(t *testing.T) {
	req := fleetJobRequest()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	opt := req.Options.toLib()
	shards, err := maxpower.PlanShards(opt, maxpower.DistributedOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := maxpower.Circuit(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, req.Population.toLib(0))
	if err != nil {
		t.Fatal(err)
	}
	reference := func(sh maxpower.Shard) []maxpower.HyperRecord {
		recs, err := maxpower.RunShard(context.Background(), maxpower.FromPopulation(pop), opt, sh, nil)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	mgr, err := NewManager(ManagerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr)
	submit := func(id string, sh maxpower.Shard) fleet.ShardStatus {
		t.Helper()
		st, err := mgr.SubmitShard(fleet.ShardRequest{ID: id, Job: payload, Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	wantDone := func(id string, sh maxpower.Shard) {
		t.Helper()
		st := waitShardTerminal(t, mgr, id)
		if st.State != fleet.ShardDone {
			t.Fatalf("shard %s finished %s: %s", id, st.State, st.Error)
		}
		if want := reference(sh); !reflect.DeepEqual(st.Records, want) {
			t.Errorf("shard %s records differ from maxpower.RunShard:\n got  %+v\n want %+v", id, st.Records, want)
		}
	}
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)

	// A panic fails its own shard only.
	faultpoint.Arm("service/shard-run", 1, func() error { panic("injected shard panic") })
	submit("p-s0", shards[0])
	if st := waitShardTerminal(t, mgr, "p-s0"); st.State != fleet.ShardFailed ||
		!strings.Contains(st.Error, "injected shard panic") || !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("panicking shard = %s (%q), want failed with the message and stack", st.State, st.Error)
	}
	if s := mgr.Stats(); s.Panics != 1 || s.ShardsFailed != 1 {
		t.Errorf("after the panic: panics %d, shards_failed %d; want 1 and 1", s.Panics, s.ShardsFailed)
	}
	submit("p-s1", shards[1])
	wantDone("p-s1", shards[1])

	// Hold the next shard at the fault point, so it is running and the
	// only shard worker is busy.
	held, release := make(chan struct{}), make(chan struct{})
	faultpoint.Arm("service/shard-run", 1, func() error {
		close(held)
		<-release
		return nil
	})
	submit("h-s0", shards[0])
	<-held
	if st := submit("q-s1", shards[1]); st.State != fleet.ShardQueued {
		t.Fatalf("shard behind a busy worker is %s, want queued", st.State)
	}
	if st, err := mgr.CancelShard("q-s1"); err != nil || st.State != fleet.ShardCancelled {
		t.Fatalf("cancel of a queued shard = %s, %v; want cancelled at once", st.State, err)
	}
	if got := mgr.Stats().ShardsCancelled; got != 1 {
		t.Errorf("shards_cancelled = %d after the queued cancel, want 1", got)
	}
	if st, err := mgr.CancelShard("h-s0"); err != nil || st.State != fleet.ShardRunning {
		t.Fatalf("cancel of the held shard = %s, %v; want it still running", st.State, err)
	}
	close(release)
	if st := waitShardTerminal(t, mgr, "h-s0"); st.State != fleet.ShardCancelled {
		t.Fatalf("cancelled running shard finished %s (%s), want cancelled", st.State, st.Error)
	}
	if got := mgr.Stats().ShardsCancelled; got != 2 {
		t.Errorf("shards_cancelled = %d after the running cancel, want 2", got)
	}
	if st := submit("h-s0", shards[0]); st.State != fleet.ShardQueued && st.State != fleet.ShardRunning {
		t.Fatalf("re-submitted cancelled shard is %s, want it queued again", st.State)
	}
	wantDone("h-s0", shards[0])
	if st, err := mgr.ShardStatusOf("q-s1"); err != nil || st.State != fleet.ShardCancelled {
		t.Errorf("queued-cancelled shard is %s, %v after the worker moved past it; want cancelled", st.State, err)
	}
	if s := mgr.Stats(); s.Panics != 1 || s.ShardsFailed != 1 || s.ShardsExecuted != 2 {
		t.Errorf("final: panics %d, shards_failed %d, shards_executed %d; want 1, 1, 2", s.Panics, s.ShardsFailed, s.ShardsExecuted)
	}
}

// TestShardAPIValidation: the worker edge rejects malformed shard
// submissions and unknown shard IDs.
func TestShardAPIValidation(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1})
	code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/shards", map[string]any{"id": ""}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("empty shard request: status %d, want 400", code)
	}
	code, _ = doJSON(t, http.MethodPost, srv.URL+"/v1/shards", map[string]any{
		"id":    "j-s0",
		"job":   map[string]any{"circuit": "NO-SUCH"},
		"shard": map[string]any{"index": 0, "start": 0, "count": 2, "rng": []uint64{1, 2, 3, 4}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad embedded job: status %d, want 400", code)
	}
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/shards/nope", nil, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown shard status: %d, want 404", code)
	}
	code, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/shards/nope", nil, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown shard cancel: %d, want 404", code)
	}
}
