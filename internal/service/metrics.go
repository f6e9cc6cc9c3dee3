package service

import "expvar"

// Process-wide expvar counters, served on /debug/vars. Every Manager in
// the process feeds them (the per-instance numbers are on /v1/stats);
// expvar.Publish panics on duplicate names, so these live at package
// scope and are created exactly once.
var (
	expJobsSubmitted = expvar.NewInt("maxpowerd_jobs_submitted")
	expJobsCompleted = expvar.NewInt("maxpowerd_jobs_completed")
	expJobsFailed    = expvar.NewInt("maxpowerd_jobs_failed")
	expJobsCancelled = expvar.NewInt("maxpowerd_jobs_cancelled")
	expCacheHits     = expvar.NewInt("maxpowerd_population_cache_hits")
	expCacheMisses   = expvar.NewInt("maxpowerd_population_cache_misses")
	// Kernel-cache counters: compiled simulation programs (circuit +
	// delay model → flat striped kernel) deduplicated across jobs,
	// population builds, and fleet shards. CompileNS accumulates the
	// wall time spent compiling on misses, so hit ratio × compile cost
	// quantifies what the cache saves.
	expKernelHits      = expvar.NewInt("maxpowerd_kernel_cache_hits")
	expKernelMisses    = expvar.NewInt("maxpowerd_kernel_cache_misses")
	expKernelCompileNS = expvar.NewInt("maxpowerd_kernel_compile_ns")
	expPairsSimulated  = expvar.NewInt("maxpowerd_pairs_simulated")
	expUnitsSimulated  = expvar.NewInt("maxpowerd_units_simulated")
	expWorkersBusy     = expvar.NewInt("maxpowerd_workers_busy")
	// Wall-time split of completed estimation work: simulation
	// (unit-power draws and population builds) vs Weibull MLE fitting.
	expSimNS = expvar.NewInt("maxpowerd_sim_ns")
	expMLENS = expvar.NewInt("maxpowerd_mle_ns")
	// Robustness counters: recovered = jobs re-enqueued from the journal
	// after a restart; journal_lines_skipped = journal lines replay
	// skipped as torn, corrupt or overlong; evicted = terminal jobs
	// dropped by the retention policy; deadline = jobs stopped by their
	// wall-time cap; panics = worker panics converted to job failures
	// (the daemon kept serving);
	// rejected_* = submissions refused at the edge, split by cause;
	// journal_errors = journal appends that failed (the job proceeded).
	expJobsRecovered    = expvar.NewInt("maxpowerd_jobs_recovered")
	expJournalSkipped   = expvar.NewInt("maxpowerd_journal_lines_skipped")
	expJobsEvicted      = expvar.NewInt("maxpowerd_jobs_evicted")
	expJobsDeadline     = expvar.NewInt("maxpowerd_jobs_deadline_exceeded")
	expPanics           = expvar.NewInt("maxpowerd_panics")
	expRejectedFull     = expvar.NewInt("maxpowerd_rejected_queue_full")
	expRejectedShutdown = expvar.NewInt("maxpowerd_rejected_shutting_down")
	expRejectedInvalid  = expvar.NewInt("maxpowerd_rejected_invalid")
	expJournalErrors    = expvar.NewInt("maxpowerd_journal_errors")
	// Fleet counters: worker-side shard executions and the streaming
	// batch-to-scalar fallback count (results unaffected, degradation
	// visible). Coordinator-side dispatch counters live on the
	// per-instance /v1/stats (fleet_shards_*), fed by fleet.Coordinator.
	expShardsExecuted  = expvar.NewInt("maxpowerd_shards_executed")
	expShardsFailed    = expvar.NewInt("maxpowerd_shards_failed")
	expShardsCancelled = expvar.NewInt("maxpowerd_shards_cancelled")
	expBatchFallbacks  = expvar.NewInt("maxpowerd_batch_fallbacks")
	// Overload-resilience counters: load_shed = queued jobs displaced by
	// higher-priority arrivals under overload; rate_limited and
	// quota_exceeded = refused submissions (429s) split by cause —
	// submission token bucket vs simulated-units budget.
	// Speculative-kernel counters: timed stripes run by the
	// settle-then-patch executor, gate-words patched without event
	// simulation, and stripes replayed on the full event wheel after a
	// misprediction (results are bit-identical either way; a rising
	// fallback share means the speed win is eroding).
	expSpecStripes   = expvar.NewInt("maxpowerd_spec_stripes")
	expSpecPatched   = expvar.NewInt("maxpowerd_spec_patched_words")
	expSpecFallbacks = expvar.NewInt("maxpowerd_spec_fallbacks")
	expLoadShed      = expvar.NewInt("maxpowerd_load_shed")
	expRateLimited   = expvar.NewInt("maxpowerd_rate_limited")
	expQuotaExceeded = expvar.NewInt("maxpowerd_quota_exceeded")
)
