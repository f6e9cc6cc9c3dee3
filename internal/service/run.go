package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/evt"
	"repro/maxpower"
)

// task is the lifecycle a job and a fleet shard share: queued → running
// → done | failed | cancelled, where a queued task can go straight to
// cancelled. The runner and the cancel paths read and write it under
// m.mu.
type task struct {
	kind     *kind
	id       string
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	cancel   context.CancelFunc // set while running
}

func (t *task) lifecycle() *task { return t }

// kind is what the runner and the cancel paths tell apart between a job
// and a shard.
type kind struct {
	noun      string // names the work in a panic's error
	cancelMsg string // the error of work cancelled while running
	// The counters of the three terminal states.
	done, failed, cancelled event
}

var (
	jobKind = &kind{
		noun:      "job",
		cancelMsg: "cancelled before convergence",
		done:      evJobsCompleted,
		failed:    evJobsFailed,
		cancelled: evJobsCancelled,
	}
	shardKind = &kind{
		noun:      "shard",
		done:      evShardsExecuted,
		failed:    evShardsFailed,
		cancelled: evShardsCancelled,
	}
)

// outcome is what one run of a job or a shard produced.
type outcome struct {
	// finished reports whether the work completed: a job when its
	// estimate converged or used its whole hyper-sample budget, a shard
	// when it returned all of its records. Work stopped short with a nil
	// error was stopped by its context.
	finished bool
	err      error
	res      maxpower.Result   // a job's estimate, partial when cancelled
	cacheHit bool              // a job's population came from the cache
	recs     []evt.HyperRecord // a shard's records
}

// work is a job or a shard as the runner sees it.
type work interface {
	lifecycle() *task
	// exec runs the work under ctx, behind the runner's recover
	// barrier; it hits the work's fault point first.
	exec(ctx context.Context, m *Manager) outcome
	// settle keeps what the work produced, under m.mu, once the runner
	// has set its terminal state and counted it. It returns the journal
	// record to append after m.mu is released, or nil.
	settle(m *Manager, o outcome) *record
}

// run is the runner both pool loops call, for a job or a shard. It
// takes w from queued to running, runs it under a context capped at
// timeout (0 = no cap) behind a recover barrier, and records the
// outcome by one rule: work that finished is done, whatever its context
// says afterwards; work stopped short by its context is cancelled; any
// other error fails it. A simulated crash records nothing.
func (m *Manager) run(w work, timeout time.Duration) {
	t := w.lifecycle()
	if m.crashed.Load() {
		return // simulated process death: the worker is "gone"
	}
	m.mu.Lock()
	if t.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	if timeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, timeout)
		defer stop()
	}
	t.state, t.started, t.cancel = StateRunning, time.Now(), cancel
	m.mu.Unlock()

	m.count(evWorkersBusy, 1)
	defer m.count(evWorkersBusy, -1)
	o := m.execRecover(ctx, w)
	if m.crashed.Load() {
		// Simulated process death: a real crash records nothing past this
		// point. Replay resumes a job from its last checkpoint; a
		// coordinator sees a shard's worker vanish and reassigns it.
		return
	}

	m.mu.Lock()
	t.finished = time.Now()
	switch {
	case o.finished:
		t.state = StateDone
		m.count(t.kind.done, 1)
	case ctx.Err() != nil || o.err == nil:
		// Stopped short by a cancel, the shutdown deadline or the
		// wall-time cap (work that stops short without an error was
		// stopped by its context); a job that returned no error keeps
		// its partial estimate.
		t.state = StateCancelled
		t.errMsg = t.kind.cancelMsg
		if ctx.Err() == context.DeadlineExceeded {
			t.errMsg = "deadline exceeded before convergence"
			m.count(evJobsDeadline, 1)
		}
		m.count(t.kind.cancelled, 1)
	default:
		t.state = StateFailed
		t.errMsg = o.err.Error()
		m.count(t.kind.failed, 1)
	}
	rec := w.settle(m, o)
	m.mu.Unlock()
	if rec != nil {
		m.journalAppend(*rec)
	}
}

// execRecover runs w behind the recover barrier: a panic anywhere in its
// execution — circuit parsing, population build, the estimator — fails
// that one job or shard with the stack in its error and leaves the
// worker, the pool and all other work untouched.
func (m *Manager) execRecover(ctx context.Context, w work) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			m.count(evPanics, 1)
			t := w.lifecycle()
			o = outcome{err: fmt.Errorf("service: panic in %s %s: %v\n%s", t.kind.noun, t.id, r, debug.Stack())}
		}
	}()
	return w.exec(ctx, m)
}

// cancelLocked cancels t (caller holds m.mu). A queued task ends
// cancelled at once, is counted, and true is returned; a running one
// has its context cancelled and ends at its next hyper-sample boundary.
func (m *Manager) cancelLocked(t *task) bool {
	switch t.state {
	case StateQueued:
		t.state = StateCancelled
		t.finished = time.Now()
		m.count(t.kind.cancelled, 1)
		return true
	case StateRunning:
		t.cancel()
	}
	return false
}
