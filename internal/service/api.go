// Package service implements maxpowerd's estimation service: a
// JSON-over-HTTP API (stdlib net/http only) that runs maximum-power
// estimation jobs asynchronously on a bounded worker pool, reports
// per-job progress from the estimator's observer seam, and reuses
// parsed circuits and built populations through an LRU cache.
package service

import (
	"fmt"
	"math"
	"time"

	"repro/maxpower"
)

// finite maps NaN/±Inf to 0 for JSON transport (encoding/json rejects
// non-finite floats; the k = 1 snapshot legitimately has an unbounded
// interval). A zero CI bound alongside hyper_samples = 1 reads as "no
// interval yet".
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}

// PopulationSpec is the wire form of maxpower.PopulationSpec (electrical
// constants stay at library defaults; per-job overrides are a later PR).
type PopulationSpec struct {
	Kind       string    `json:"kind,omitempty"`
	Size       int       `json:"size,omitempty"`
	Activity   float64   `json:"activity,omitempty"`
	Skew       float64   `json:"skew,omitempty"`
	Probs      []float64 `json:"probs,omitempty"`
	DelayModel string    `json:"delay_model,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
}

func (s PopulationSpec) toLib(workers int) maxpower.PopulationSpec {
	return maxpower.PopulationSpec{
		Kind:       s.Kind,
		Size:       s.Size,
		Activity:   s.Activity,
		Skew:       s.Skew,
		Probs:      s.Probs,
		DelayModel: s.DelayModel,
		Seed:       s.Seed,
		Workers:    workers,
	}
}

// EstimateOptions is the wire form of maxpower.EstimateOptions. Workers
// is the job's simulation-parallelism budget for streaming runs; the
// manager clamps it to its own SimWorkers ceiling, and it never changes
// the estimate (only wall time).
type EstimateOptions struct {
	SampleSize              int     `json:"sample_size,omitempty"`
	SamplesPerHyper         int     `json:"samples_per_hyper,omitempty"`
	Epsilon                 float64 `json:"epsilon,omitempty"`
	Confidence              float64 `json:"confidence,omitempty"`
	Seed                    uint64  `json:"seed,omitempty"`
	MaxHyperSamples         int     `json:"max_hyper_samples,omitempty"`
	DisableFiniteCorrection bool    `json:"disable_finite_correction,omitempty"`
	Workers                 int     `json:"workers,omitempty"`
	// TimeoutMS caps the job's wall time in milliseconds. The manager's
	// MaxJobDuration is a ceiling: a job may ask for less, never more. A
	// job that hits its deadline stops at the next hyper-sample boundary
	// and keeps its partial (checkpointed) estimate as a cancelled job.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority is the job's scheduling class: "batch", "normal"
	// (default), or "interactive". Higher classes dequeue first; under
	// overload, arriving higher-class jobs may shed queued lower-class
	// ones. Purely a scheduling knob — it never changes the estimate.
	Priority string `json:"priority,omitempty"`
}

func (o EstimateOptions) toLib() maxpower.EstimateOptions {
	return maxpower.EstimateOptions{
		SampleSize:              o.SampleSize,
		SamplesPerHyper:         o.SamplesPerHyper,
		Epsilon:                 o.Epsilon,
		Confidence:              o.Confidence,
		Seed:                    o.Seed,
		MaxHyperSamples:         o.MaxHyperSamples,
		DisableFiniteCorrection: o.DisableFiniteCorrection,
		Workers:                 o.Workers,
	}
}

// JobRequest is the POST /v1/jobs body. Exactly one of Circuit (a
// built-in benchmark name) or Bench (a raw ISCAS-85 .bench netlist)
// selects the circuit. Streaming selects on-demand simulation (every
// sampled pair costs one simulation, nothing is cached); the default
// precomputed-population mode builds — or reuses from cache — the full
// finite population first.
type JobRequest struct {
	Circuit    string          `json:"circuit,omitempty"`
	Bench      string          `json:"bench,omitempty"`
	Population PopulationSpec  `json:"population"`
	Options    EstimateOptions `json:"options"`
	Streaming  bool            `json:"streaming,omitempty"`
}

// Validate performs the request checks that need no circuit: exactly
// one circuit source, and library-level spec/option validation, so bad
// jobs fail at submission with a 400 instead of queue-then-fail.
func (r JobRequest) Validate(known func(string) bool) error {
	if r.Circuit == "" && r.Bench == "" {
		return fmt.Errorf("one of circuit or bench is required")
	}
	if r.Circuit != "" && r.Bench != "" {
		return fmt.Errorf("circuit and bench are mutually exclusive")
	}
	if r.Circuit != "" && known != nil && !known(r.Circuit) {
		return fmt.Errorf("unknown circuit %q (GET /v1/circuits lists the built-ins)", r.Circuit)
	}
	if r.Options.TimeoutMS < 0 {
		return fmt.Errorf("options.timeout_ms must be >= 0, got %d", r.Options.TimeoutMS)
	}
	if _, err := classOf(r.Options.Priority); err != nil {
		return err
	}
	if err := r.Population.toLib(0).Validate(); err != nil {
		return err
	}
	return r.Options.toLib().Validate()
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle: Queued → Running → Done | Failed | Cancelled. A queued
// job can go straight to Cancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is the wire form of the estimator's running Result.
type Progress struct {
	HyperSamples int     `json:"hyper_samples"`
	Estimate     float64 `json:"estimate_mw"`
	CILow        float64 `json:"ci_low_mw"`
	CIHigh       float64 `json:"ci_high_mw"`
	HalfWidth    float64 `json:"ci_half_width_mw"`
	RelErr       float64 `json:"rel_err"`
	Units        int     `json:"units_simulated"`
	Converged    bool    `json:"converged"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Circuit   string     `json:"circuit"`
	Tenant    string     `json:"tenant,omitempty"`
	Priority  string     `json:"priority,omitempty"`
	Streaming bool       `json:"streaming"`
	CacheHit  bool       `json:"cache_hit"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// DurationMS is wall time from start to finish (or to now while
	// running); 0 while queued.
	DurationMS float64   `json:"duration_ms"`
	Progress   *Progress `json:"progress,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result body: the scalar fields of
// the final evt.Result plus identification. A finished job keeps only
// these fields of its result; the per-hyper-sample trace is dropped when
// the job settles, since no route serves it.
type JobResult struct {
	ID           string   `json:"id"`
	Circuit      string   `json:"circuit"`
	Estimate     float64  `json:"estimate_mw"`
	CILow        float64  `json:"ci_low_mw"`
	CIHigh       float64  `json:"ci_high_mw"`
	RelErr       float64  `json:"rel_err"`
	HyperSamples int      `json:"hyper_samples"`
	Units        int      `json:"units_simulated"`
	Converged    bool     `json:"converged"`
	ObservedMax  float64  `json:"observed_max_mw"`
	SigmaSq      float64  `json:"sigma_sq"`
	CacheHit     bool     `json:"cache_hit"`
	State        JobState `json:"state"`
}

// CircuitInfo is one row of GET /v1/circuits.
type CircuitInfo struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Depth   int    `json:"depth"`
}

// Stats is the GET /v1/stats body: per-instance counters (the same
// numbers are mirrored process-wide on /debug/vars via expvar).
type Stats struct {
	JobsSubmitted   int64 `json:"jobs_submitted"`
	JobsCompleted   int64 `json:"jobs_completed"`
	JobsFailed      int64 `json:"jobs_failed"`
	JobsCancelled   int64 `json:"jobs_cancelled"`
	CacheHits       int64 `json:"population_cache_hits"`
	CacheMisses     int64 `json:"population_cache_misses"`
	PairsSimulated  int64 `json:"pairs_simulated"`
	UnitsSimulated  int64 `json:"units_simulated"`
	WorkersBusy     int64 `json:"workers_busy"`
	QueueDepth      int64 `json:"queue_depth"`
	PopulationsHeld int64 `json:"populations_cached"`
	// SimNS and MLENS split job wall time into its two cost centers,
	// in nanoseconds: simulation (unit-power draws plus population
	// builds) and Weibull MLE fitting. Their ratio is the service-level
	// view of how much of the estimation budget the simulator consumes.
	SimNS int64 `json:"sim_ns"`
	MLENS int64 `json:"mle_ns"`
	// Kernel-cache counters (PR 7). Compiled simulation programs (one
	// flat striped kernel per circuit + delay model) are shared across
	// streaming jobs, population builds, and fleet shards through one
	// LRU; KernelCompileNS accumulates the compile wall time paid on
	// misses. The same numbers are mirrored process-wide as
	// maxpowerd_kernel_cache_* on /debug/vars.
	KernelCacheHits   int64 `json:"kernel_cache_hits"`
	KernelCacheMisses int64 `json:"kernel_cache_misses"`
	KernelCompileNS   int64 `json:"kernel_compile_ns"`
	KernelsHeld       int64 `json:"kernels_cached"`
	// Speculative-kernel counters (PR 10): timed stripes attempted by
	// the settle-then-patch executor, gate-words patched from hazard
	// analysis, and stripes replayed on the scalar simulator after a
	// misprediction. The replay never changes results; these track
	// where the simulation time went. Mirrored process-wide as
	// maxpowerd_spec_stripes / maxpowerd_spec_fallbacks on /debug/vars.
	SpecStripes      int64 `json:"spec_stripes"`
	SpecPatchedWords int64 `json:"spec_patched_words"`
	SpecFallbacks    int64 `json:"spec_fallbacks"`
	// Robustness counters (PR 4). JobsRecovered counts jobs re-enqueued
	// from the journal after a restart, and JournalSkipped the journal
	// lines that replay skipped as torn, corrupt or overlong;
	// JobsEvicted, terminal jobs dropped by the retention policy;
	// DeadlineExceeded, jobs stopped by their wall-time cap; Panics,
	// worker panics converted to failed jobs. The Rejected* trio splits refused submissions by cause, and
	// JournalErrors counts journal appends that failed (jobs proceed —
	// durability degrades, availability does not).
	JobsRecovered    int64 `json:"jobs_recovered"`
	JournalSkipped   int64 `json:"journal_lines_skipped"`
	JobsEvicted      int64 `json:"jobs_evicted"`
	DeadlineExceeded int64 `json:"jobs_deadline_exceeded"`
	Panics           int64 `json:"panics"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedShutdown int64 `json:"rejected_shutting_down"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	JournalErrors    int64 `json:"journal_errors"`
	// Fleet counters (PR 6). The Shards* trio counts this instance's
	// worker-side shard executions; the FleetShards* trio counts
	// coordinator-side dispatch activity (zero on pure workers).
	ShardsExecuted        int64 `json:"shards_executed"`
	ShardsFailed          int64 `json:"shards_failed"`
	ShardsCancelled       int64 `json:"shards_cancelled"`
	FleetShardsDispatched int64 `json:"fleet_shards_dispatched"`
	FleetShardsRetried    int64 `json:"fleet_shards_retried"`
	FleetShardsCancelled  int64 `json:"fleet_shards_cancelled"`
	// Overload-resilience counters (PR 8). JobsQueued/JobsRunning are
	// per-state gauges over the live job table; QueueDepthByFlow breaks
	// the queued backlog down by tenant and priority class. LoadShed
	// counts queued jobs displaced by higher-priority arrivals under
	// overload; RateLimited and QuotaExceeded count refused submissions
	// by cause (429s). The Fleet* trio surfaces the coordinator's
	// resilience machinery: total backoff waited between shard retries,
	// circuit-breaker trips (worker evictions), and currently-evicted
	// workers (a gauge).
	JobsQueued        int64                     `json:"jobs_queued"`
	JobsRunning       int64                     `json:"jobs_running"`
	QueueDepthByFlow  map[string]map[string]int `json:"queue_depth_by_tenant,omitempty"`
	LoadShed          int64                     `json:"load_shed_total"`
	RateLimited       int64                     `json:"rate_limited_total"`
	QuotaExceeded     int64                     `json:"quota_exceeded_total"`
	FleetBackoffNS    int64                     `json:"fleet_shard_backoff_ns"`
	FleetBreakerTrips int64                     `json:"fleet_breaker_trips"`
	FleetWorkersOpen  int64                     `json:"fleet_workers_open"`
}

// apiError is the structured error body: {"error":{"code":..,"message":..}}.
type apiError struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}
