package service

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// The chaos suite kills (simulated SIGKILL, via killForTest) and
// restarts the Manager mid-job, injects faults at the named seams, and
// asserts the robustness contract: resumed jobs produce bit-identical
// results, injected panics fail only their own job, and journal
// failures degrade durability but never availability.

// chaosJob is the workload under test: deterministic (seeded population
// and estimation) and long enough — ~15 hyper-samples at ε = 0.02 — to
// interrupt partway through.
func chaosJob() JobRequest {
	return JobRequest{
		Circuit:    "C432",
		Population: PopulationSpec{Size: 2000, Seed: 5},
		Options:    EstimateOptions{Seed: 13, Epsilon: 0.02},
	}
}

// runOnce executes req to completion on a journal-less manager — the
// uninterrupted baseline every crash scenario is compared against.
func runOnce(t *testing.T, req JobRequest) JobResult {
	t.Helper()
	mgr, err := NewManager(ManagerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr)
	id, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitManagerTerminal(t, mgr, id); st.State != StateDone {
		t.Fatalf("baseline job state = %s (%s), want done", st.State, st.Error)
	}
	res, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// kernel strips the per-instance job ID so results from different
// managers compare on their statistical content alone.
func kernel(r JobResult) JobResult {
	r.ID = ""
	return r
}

// gateProgressAtK blocks the (single) worker inside the first progress
// callback whose hyper-sample count reaches k, until release is closed.
func gateProgressAtK(mgr *Manager, k int) (gate, release chan struct{}) {
	gate = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	mgr.OnProgress = func(id string, p Progress) {
		if p.HyperSamples >= k {
			once.Do(func() {
				close(gate)
				<-release
			})
		}
	}
	return gate, release
}

// crash simulates a SIGKILL while the worker is parked inside a gated
// progress callback: killForTest runs concurrently (it must wait for
// the worker), the crashed flag is confirmed set, and only then is the
// worker released to die at its next hyper-sample boundary.
func crash(t *testing.T, mgr *Manager, release chan struct{}) {
	t.Helper()
	killed := make(chan struct{})
	go func() { mgr.killForTest(); close(killed) }()
	deadline := time.Now().Add(30 * time.Second)
	for !mgr.crashed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("killForTest never marked the manager crashed")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-killed
}

// TestChaosKillRestartBitIdentical is the tentpole scenario: kill the
// daemon after ≥3 checkpointed hyper-samples, restart over the same
// data dir, and require the resumed job's result to be bit-identical —
// every statistical field — to an uninterrupted run's.
func TestChaosKillRestartBitIdentical(t *testing.T) {
	baseline := runOnce(t, chaosJob())
	if !baseline.Converged {
		t.Fatalf("baseline did not converge: %+v", baseline)
	}
	if baseline.HyperSamples < 4 {
		t.Fatalf("baseline finished in %d hyper-samples — too short to interrupt", baseline.HyperSamples)
	}

	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate, release := gateProgressAtK(mgr, 3)
	id, err := mgr.Submit(chaosJob())
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	crash(t, mgr, release)

	// A crash records no outcome: the journal must hold checkpoints but
	// no terminal record.
	recs, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, rec := range recs {
		if rec.Type == recTerminal {
			t.Fatalf("crashed run left a terminal record: %+v", rec)
		}
		if rec.Type == recCheckpoint {
			checkpoints++
		}
	}
	if checkpoints < 2 {
		t.Fatalf("only %d checkpoints journaled before the kill, want ≥ 2", checkpoints)
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if got := mgr2.Stats().JobsRecovered; got != 1 {
		t.Errorf("jobs recovered = %d, want 1", got)
	}
	if st := waitManagerTerminal(t, mgr2, id); st.State != StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", st.State, st.Error)
	}
	res, err := mgr2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if kernel(res) != kernel(baseline) {
		t.Errorf("resumed result is not bit-identical to the uninterrupted run:\n  resumed  %+v\n  baseline %+v", res, baseline)
	}
}

// TestChaosTornCheckpointResume simulates the crash window between the
// journal write and its fsync: the last checkpoint line survives only
// partially. Replay must skip the torn record, resume from the previous
// good checkpoint, and still converge bit-identically.
func TestChaosTornCheckpointResume(t *testing.T) {
	baseline := runOnce(t, chaosJob())

	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate, release := gateProgressAtK(mgr, 3)
	id, err := mgr.Submit(chaosJob())
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	crash(t, mgr, release)

	// Tear the journal's final line in half — the unsynced tail a real
	// crash can leave.
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(raw, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n') + 1
	lastLine := trimmed[cut:]
	if len(lastLine) < 2 {
		t.Fatalf("last journal line too short to tear: %q", lastLine)
	}
	torn := append([]byte(nil), raw[:cut]...)
	torn = append(torn, lastLine[:len(lastLine)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if st := waitManagerTerminal(t, mgr2, id); st.State != StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", st.State, st.Error)
	}
	res, err := mgr2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if kernel(res) != kernel(baseline) {
		t.Errorf("resume over a torn journal diverged:\n  resumed  %+v\n  baseline %+v", res, baseline)
	}
}

// TestChaosCheckpointsSuppressed arms the checkpoint seam so nothing is
// ever journaled, then crashes mid-run: replay finds a submit with no
// checkpoint, restarts the job from scratch, and determinism still
// yields the baseline result.
func TestChaosCheckpointsSuppressed(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	baseline := runOnce(t, chaosJob())

	faultpoint.Arm("service/checkpoint", 0, func() error { return errors.New("checkpointing disabled by chaos") })
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate, release := gateProgressAtK(mgr, 3)
	id, err := mgr.Submit(chaosJob())
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	crash(t, mgr, release)
	faultpoint.Reset()

	recs, _, err := readRecords(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Type == recCheckpoint {
			t.Fatalf("suppressed run journaled a checkpoint: %+v", rec)
		}
	}

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if st := waitManagerTerminal(t, mgr2, id); st.State != StateDone {
		t.Fatalf("restarted job state = %s (%s), want done", st.State, st.Error)
	}
	res, err := mgr2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if kernel(res) != kernel(baseline) {
		t.Errorf("from-scratch restart diverged:\n  restarted %+v\n  baseline  %+v", res, baseline)
	}
}

// TestChaosKilledWhileQueued crashes with one job running and another
// still queued; both must come back and finish after restart.
func TestChaosKilledWhileQueued(t *testing.T) {
	queuedReq := smallJob(97)
	baseline := runOnce(t, queuedReq)

	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate, release := gateProgressAtK(mgr, 1)
	running, err := mgr.Submit(chaosJob())
	if err != nil {
		t.Fatal(err)
	}
	<-gate // the single worker is now inside the first job
	queued, err := mgr.Submit(queuedReq)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, mgr, release)

	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if got := mgr2.Stats().JobsRecovered; got != 2 {
		t.Errorf("jobs recovered = %d, want 2", got)
	}
	if st := waitManagerTerminal(t, mgr2, running); st.State != StateDone {
		t.Errorf("interrupted job state = %s (%s), want done", st.State, st.Error)
	}
	if st := waitManagerTerminal(t, mgr2, queued); st.State != StateDone {
		t.Fatalf("queued job state = %s (%s), want done", st.State, st.Error)
	}
	res, err := mgr2.Result(queued)
	if err != nil {
		t.Fatal(err)
	}
	if kernel(res) != kernel(baseline) {
		t.Errorf("never-started job diverged after recovery:\n  recovered %+v\n  baseline  %+v", res, baseline)
	}
}

// TestChaosJournalFaultsDontFailJobs injects a failed journal write and
// a failed fsync; the affected appends are counted, the job itself
// completes, and its terminal record still lands (later appends work).
func TestChaosJournalFaultsDontFailJobs(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Arm after the submit and start records land (the worker is parked
	// at its first hyper-sample), so the faults hit checkpoint appends:
	// losing a checkpoint costs resume granularity, never the job.
	gate, release := gateProgressAtK(mgr, 1)
	id, err := mgr.Submit(smallJob(83))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	faultpoint.Arm("service/journal-write", 1, func() error { return errors.New("disk said no") })
	faultpoint.Arm("service/journal-fsync", 1, func() error { return errors.New("fsync said no") })
	close(release)
	if st := waitManagerTerminal(t, mgr, id); st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done despite journal faults", st.State, st.Error)
	}
	if got := mgr.Stats().JournalErrors; got != 2 {
		t.Errorf("journal errors = %d, want 2 (one write fault, one fsync fault)", got)
	}
	shutdownManager(t, mgr)

	// Restart: whatever made it to disk replays; the job must be either
	// restored terminal or re-run to the same done state — never lost.
	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if st := waitManagerTerminal(t, mgr2, id); st.State != StateDone {
		t.Errorf("job after restart = %s (%s), want done", st.State, st.Error)
	}
}

// TestChaosPanicIsolation injects a panic into job execution over the
// real HTTP surface: the unlucky job fails with the panic and its stack
// in the error, the daemon keeps serving, and the next job completes.
func TestChaosPanicIsolation(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1})
	faultpoint.Arm("service/worker-run", 1, func() error { panic("injected chaos panic") })

	doomed := submitJob(t, srv, smallJob(91))
	st := waitTerminal(t, srv, doomed)
	if st.State != StateFailed {
		t.Fatalf("doomed job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "injected chaos panic") || !strings.Contains(st.Error, "goroutine") {
		t.Errorf("panic error lacks message or stack: %q", st.Error)
	}

	healthy := submitJob(t, srv, smallJob(92))
	if st := waitTerminal(t, srv, healthy); st.State != StateDone {
		t.Fatalf("job after panic = %s (%s), want done — the pool must survive", st.State, st.Error)
	}
	s := serviceStats(t, srv)
	if s.Panics != 1 || s.JobsFailed != 1 || s.JobsCompleted != 1 {
		t.Errorf("stats = panics %d / failed %d / completed %d, want 1/1/1", s.Panics, s.JobsFailed, s.JobsCompleted)
	}
}

// TestChaosPopulationBuildFailure fails one population build; the job
// fails cleanly and the daemon serves the next submission.
func TestChaosPopulationBuildFailure(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1})
	faultpoint.Arm("service/population-build", 1, func() error { return errors.New("simulator farm unreachable") })

	id := submitJob(t, srv, smallJob(93))
	st := waitTerminal(t, srv, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "simulator farm unreachable") {
		t.Fatalf("job = %s (%q), want failed with the injected error", st.State, st.Error)
	}
	if st := waitTerminal(t, srv, submitJob(t, srv, smallJob(94))); st.State != StateDone {
		t.Errorf("job after build failure = %s (%s), want done", st.State, st.Error)
	}
}

// TestJobDeadline covers both deadline knobs: a per-job timeout_ms and
// the manager-wide MaxJobDuration ceiling. A job cut off by its
// deadline is cancelled — not failed — keeps whatever partial estimate
// it accumulated, and bumps the deadline counter.
func TestJobDeadline(t *testing.T) {
	// Effectively unreachable ε with a high cap: the job would run for
	// hundreds of hyper-samples if nothing stopped it.
	longReq := smallJob(95)
	longReq.Options.Epsilon = 0.0001
	longReq.Options.MaxHyperSamples = 10000

	run := func(t *testing.T, cfg ManagerConfig, req JobRequest) *Manager {
		mgr, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownManager(t, mgr) })
		id, err := mgr.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitManagerTerminal(t, mgr, id)
		if st.State != StateCancelled {
			t.Fatalf("deadline job state = %s (%s), want cancelled", st.State, st.Error)
		}
		if !strings.Contains(st.Error, "deadline exceeded") {
			t.Errorf("error = %q, want deadline exceeded", st.Error)
		}
		if got := mgr.Stats().DeadlineExceeded; got != 1 {
			t.Errorf("deadline counter = %d, want 1", got)
		}
		if res, err := mgr.Result(id); err != nil {
			t.Errorf("partial result unavailable: %v", err)
		} else {
			t.Logf("partial estimate after deadline: %.4f mW over %d hyper-samples", res.Estimate, res.HyperSamples)
		}
		return mgr
	}

	t.Run("per-job timeout_ms", func(t *testing.T) {
		req := longReq
		req.Options.TimeoutMS = 50
		run(t, ManagerConfig{Workers: 1}, req)
	})
	t.Run("manager MaxJobDuration ceiling", func(t *testing.T) {
		req := longReq
		req.Options.TimeoutMS = 60_000 // asks for a minute; the ceiling wins
		run(t, ManagerConfig{Workers: 1, MaxJobDuration: 50 * time.Millisecond}, req)
	})
}

// TestJobDeadlineTimeout pins how a job's timeout_ms and the manager's
// ceiling resolve into its deadline. A timeout_ms past the largest
// Duration once wrapped: 18,446,744,073,710 ms (about 584 years) became
// a 448-µs deadline, with or without a ceiling, and 9,223,372,036,855
// became a negative one. Both now mean no cap of their own.
func TestJobDeadlineTimeout(t *testing.T) {
	const maxMS = math.MaxInt64 / int64(time.Millisecond) // 9,223,372,036,854
	for _, tc := range []struct {
		ms      int64
		ceiling time.Duration
		want    time.Duration
	}{
		{0, 0, 0},
		{0, time.Hour, time.Hour},
		{50, 0, 50 * time.Millisecond},
		{50, time.Hour, 50 * time.Millisecond},
		{60_000, 50 * time.Millisecond, 50 * time.Millisecond},
		{maxMS, 0, time.Duration(maxMS) * time.Millisecond},
		{maxMS, time.Hour, time.Hour},
		{maxMS + 1, 0, 0},
		{maxMS + 1, time.Hour, time.Hour},
		{18_446_744_073_710, 0, 0},
		{18_446_744_073_710, time.Hour, time.Hour},
		{math.MaxInt64, 0, 0},
		{math.MaxInt64, time.Hour, time.Hour},
	} {
		if got := jobTimeout(tc.ms, tc.ceiling); got != tc.want {
			t.Errorf("jobTimeout(%d ms, ceiling %s) = %s, want %s", tc.ms, tc.ceiling, got, tc.want)
		}
	}
}

// TestCancelOnConvergedSnapshot: a cancel that lands during the
// hyper-sample that converges must not undo the convergence. The
// progress hook cancels the job on its converged snapshot, so the job's
// context has ended by the time its outcome is recorded; the work
// finished, so the job is done with its result, and jobs_cancelled does
// not move.
func TestCancelOnConvergedSnapshot(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr)
	cancelled := make(chan error, 1)
	mgr.OnProgress = func(id string, p Progress) {
		if p.Converged {
			cancelled <- mgr.Cancel(id)
		}
	}
	id, err := mgr.Submit(smallJob(21))
	if err != nil {
		t.Fatal(err)
	}
	st := waitManagerTerminal(t, mgr, id)
	select {
	case err := <-cancelled:
		if err != nil {
			t.Fatalf("cancel on the converged snapshot: %v", err)
		}
	default:
		t.Fatal("the job never reported a converged snapshot")
	}
	if st.State != StateDone || st.Error != "" {
		t.Fatalf("job converged under a cancel: state = %s, error %q; want done", st.State, st.Error)
	}
	res, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.State != StateDone {
		t.Errorf("result: converged %v, state %s; want converged and done", res.Converged, res.State)
	}
	if s := mgr.Stats(); s.JobsCancelled != 0 || s.JobsCompleted != 1 {
		t.Errorf("jobs_cancelled %d, jobs_completed %d; want 0 and 1", s.JobsCancelled, s.JobsCompleted)
	}
}

// TestRetentionBounded holds the job table to RetainJobs terminal
// entries and checks the TTL pass, the eviction counter, and — with a
// journal — that evictions survive a restart.
func TestRetentionBounded(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Workers: 2, RetainJobs: 3, RetainFor: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const total = 9
	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		id, err := mgr.Submit(smallJob(uint64(200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitManagerTerminal(t, mgr, id)
	}
	listed := mgr.List()
	// Eviction runs on submit, so the last completions may still be
	// present beyond the cap until the next submission — but never more
	// than cap + the burst since the last submit.
	if len(listed) > 4 {
		t.Errorf("job table holds %d entries with RetainJobs=3, want ≤ 4", len(listed))
	}
	s := mgr.Stats()
	if s.JobsEvicted != int64(total-len(listed)) {
		t.Errorf("evicted = %d, want %d", s.JobsEvicted, total-len(listed))
	}
	// The newest job must always survive; the oldest must be gone.
	if _, err := mgr.Status(ids[total-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if _, err := mgr.Status(ids[0]); err == nil {
		t.Errorf("oldest job still present with RetainJobs=3")
	}

	// TTL pass: pretend an hour passed; everything terminal ages out.
	mgr.cfg.RetainFor = time.Minute
	mgr.mu.Lock()
	recs := mgr.evictLocked(time.Now().Add(time.Hour))
	mgr.mu.Unlock()
	for _, rec := range recs {
		mgr.journalAppend(rec)
	}
	if got := len(mgr.List()); got != 0 {
		t.Errorf("job table holds %d entries after TTL sweep, want 0", got)
	}
	shutdownManager(t, mgr)

	// Evict records replay: a restarted manager must not resurrect them.
	mgr2, err := NewManager(ManagerConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownManager(t, mgr2)
	if got := len(mgr2.List()); got != 0 {
		t.Errorf("restart resurrected %d evicted jobs", got)
	}
}
