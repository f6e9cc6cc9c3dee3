package service

import "expvar"

// event is one counted event. A Manager keeps its own count of each
// (served on /v1/stats) at index i of its events, and adds to the
// process-wide expvar v (served on /debug/vars); Manager.count feeds
// both with one call.
type event struct {
	i int
	v *expvar.Int
}

// numEvents is how many events newEvent has registered.
var numEvents int

// newEvent registers an event under its expvar name. Every Manager in
// the process feeds the same expvar, and expvar.Publish panics on
// duplicate names, so events live at package scope and are registered
// exactly once.
func newEvent(name string) event {
	numEvents++
	return event{i: numEvents - 1, v: expvar.NewInt(name)}
}

var (
	evJobsSubmitted = newEvent("maxpowerd_jobs_submitted")
	evJobsCompleted = newEvent("maxpowerd_jobs_completed")
	evJobsFailed    = newEvent("maxpowerd_jobs_failed")
	evJobsCancelled = newEvent("maxpowerd_jobs_cancelled")
	// pairs_simulated counts simulated vector pairs: each unit of a
	// streaming estimate and each pair of a population build;
	// units_simulated counts the units every estimate drew.
	evPairsSimulated = newEvent("maxpowerd_pairs_simulated")
	evUnitsSimulated = newEvent("maxpowerd_units_simulated")
	// A gauge: workers running a job or a shard right now.
	evWorkersBusy = newEvent("maxpowerd_workers_busy")
	// Wall-time split of completed estimation work: simulation
	// (unit-power draws and population builds) vs Weibull MLE fitting.
	evSimNS = newEvent("maxpowerd_sim_ns")
	evMLENS = newEvent("maxpowerd_mle_ns")
	// Robustness counters: recovered = jobs re-enqueued from the journal
	// after a restart; journal_lines_skipped = journal lines replay
	// skipped as torn, corrupt or overlong; evicted = terminal jobs
	// dropped by the retention policy; deadline = jobs stopped by their
	// wall-time cap; panics = worker panics converted to job or shard
	// failures (the daemon kept serving); rejected_* = submissions
	// refused at the edge, split by cause; journal_errors = journal
	// appends that failed (the job proceeded).
	evJobsRecovered    = newEvent("maxpowerd_jobs_recovered")
	evJournalSkipped   = newEvent("maxpowerd_journal_lines_skipped")
	evJobsEvicted      = newEvent("maxpowerd_jobs_evicted")
	evJobsDeadline     = newEvent("maxpowerd_jobs_deadline_exceeded")
	evPanics           = newEvent("maxpowerd_panics")
	evRejectedFull     = newEvent("maxpowerd_rejected_queue_full")
	evRejectedShutdown = newEvent("maxpowerd_rejected_shutting_down")
	evRejectedInvalid  = newEvent("maxpowerd_rejected_invalid")
	evJournalErrors    = newEvent("maxpowerd_journal_errors")
	// Fleet counters: worker-side shard executions. Coordinator-side
	// dispatch counters live on the per-instance /v1/stats
	// (fleet_shards_*), fed by fleet.Coordinator.
	evShardsExecuted  = newEvent("maxpowerd_shards_executed")
	evShardsFailed    = newEvent("maxpowerd_shards_failed")
	evShardsCancelled = newEvent("maxpowerd_shards_cancelled")
	// Speculative-kernel counters: timed stripes run by the
	// settle-then-patch executor, gate-words patched without event
	// simulation, and stripes replayed on the scalar simulator after a
	// misprediction (results are bit-identical either way; a replayed
	// stripe costs about 25 merged ones, so any fallback at all means
	// the speed win is eroding).
	evSpecStripes   = newEvent("maxpowerd_spec_stripes")
	evSpecPatched   = newEvent("maxpowerd_spec_patched_words")
	evSpecFallbacks = newEvent("maxpowerd_spec_fallbacks")
	// Overload-resilience counters: load_shed = queued jobs displaced by
	// higher-priority arrivals under overload; rate_limited and
	// quota_exceeded = refused submissions (429s) split by cause —
	// submission token bucket vs simulated-units budget.
	evLoadShed      = newEvent("maxpowerd_load_shed")
	evRateLimited   = newEvent("maxpowerd_rate_limited")
	evQuotaExceeded = newEvent("maxpowerd_quota_exceeded")
)

// The cache counters have no per-instance twin on the Manager: /v1/stats
// reads a Manager's own numbers straight from its caches.
var (
	expCacheHits   = expvar.NewInt("maxpowerd_population_cache_hits")
	expCacheMisses = expvar.NewInt("maxpowerd_population_cache_misses")
	// Kernel-cache counters: compiled simulation programs (circuit +
	// delay model → flat striped kernel) deduplicated across jobs,
	// population builds, and fleet shards. CompileNS accumulates the
	// wall time spent compiling on misses, so hit ratio × compile cost
	// quantifies what the cache saves.
	expKernelHits      = expvar.NewInt("maxpowerd_kernel_cache_hits")
	expKernelMisses    = expvar.NewInt("maxpowerd_kernel_cache_misses")
	expKernelCompileNS = expvar.NewInt("maxpowerd_kernel_compile_ns")
)

// count adds d to event e, on this Manager and process-wide.
func (m *Manager) count(e event, d int64) {
	m.events[e.i].Add(d)
	e.v.Add(d)
}

// counted is this Manager's count of event e.
func (m *Manager) counted(e event) int64 { return m.events[e.i].Load() }
