package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evt"
	"repro/internal/faultpoint"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/maxpower"
)

// Errors surfaced by Submit/Cancel, mapped to HTTP statuses in server.go.
var (
	ErrQueueFull    = errors.New("service: job queue is full")
	ErrShuttingDown = errors.New("service: shutting down, not accepting jobs")
	ErrNotFound     = errors.New("service: no such job")
	ErrNotFinished  = errors.New("service: job has not finished")
	ErrFinished     = errors.New("service: job already finished")
	// errTenantFull is the per-tenant admission bound (the global bound
	// is ErrQueueFull); the server maps it to 429 rather than 503 —
	// the service is fine, that tenant is over its share.
	errTenantFull = errors.New("service: tenant queue depth exceeded")
)

// ManagerConfig sizes the Manager. Zero fields take defaults.
type ManagerConfig struct {
	// Workers is the worker-pool size: how many jobs estimate
	// concurrently. Default: NumCPU, capped at 8 (each population build
	// already parallelizes internally).
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// submissions beyond it are rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// CacheSize is the population LRU capacity in entries. Default 16.
	CacheSize int
	// KernelCacheSize is the compiled-kernel LRU capacity in programs
	// (one per circuit + delay model pair). Default 16.
	KernelCacheSize int
	// SimWorkers bounds the per-job simulation parallelism: population
	// builds and the batched per-hyper-sample simulation of streaming
	// jobs (0 = NumCPU). A job may request fewer workers, never more.
	SimWorkers int
	// DataDir, when non-empty, turns on the durable job journal: every
	// submit/start/checkpoint/terminal transition is appended (fsync'd)
	// to <DataDir>/journal.jsonl, and a restarted Manager replays it —
	// terminal jobs come back with their results, interrupted jobs are
	// re-enqueued from their last checkpoint and resume bit-identically.
	// Empty keeps the PR-1 in-memory behavior with zero overhead.
	DataDir string
	// MaxJobDuration caps every job's wall time; a job's own
	// options.timeout_ms may shorten but never extend it. A job that
	// hits its deadline stops at the next hyper-sample boundary and
	// keeps its partial (checkpointed) estimate. 0 = unlimited.
	MaxJobDuration time.Duration
	// RetainJobs bounds how many terminal jobs the table keeps; the
	// oldest-finished are evicted beyond it. 0 = default 512, < 0 =
	// unlimited. Queued and running jobs are never evicted.
	RetainJobs int
	// RetainFor is the terminal-job TTL: jobs finished longer ago are
	// evicted by the janitor. 0 = default 1h, < 0 = no TTL.
	RetainFor time.Duration
	// FleetWorkers, when non-empty, turns this instance into a fleet
	// coordinator: submitted jobs are split into shards (see ShardSize)
	// and fanned out to these worker daemons' /v1/shards APIs instead of
	// running locally. The merged result is bit-identical to a
	// single-node run with the same shard plan. Every instance — with or
	// without FleetWorkers — serves /v1/shards and can act as a worker.
	FleetWorkers []string
	// ShardSize is hyper-samples per shard in coordinator mode
	// (0 = fleet.DefaultShardSize). Part of the shard plan: a fleet run
	// and its single-node reference must agree on it to bit-match.
	ShardSize int
	// ShardTimeout bounds one shard dispatch attempt in coordinator
	// mode; a shard exceeding it is cancelled on that worker and retried
	// on the next (0 = no per-attempt cap).
	ShardTimeout time.Duration
	// RetryBackoff spaces shard retry attempts in coordinator mode with
	// capped jittered exponential delays (zero value = default policy
	// on; Disabled restores immediate rotation).
	RetryBackoff fleet.Backoff
	// BreakerThreshold and BreakerCooldown configure the coordinator's
	// per-worker circuit breakers (0 = fleet.Breaker defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HealthInterval is the coordinator's worker health-probe period:
	// every tick, GET /healthz on each fleet worker feeds the circuit
	// breakers, evicting dead workers between jobs and re-admitting
	// recovered ones immediately. 0 = 5 s; negative disables probing.
	// Ignored outside coordinator mode.
	HealthInterval time.Duration
	// Tenants, when non-empty, turns on multi-tenancy: API-key
	// authentication, per-tenant rate limits and quotas, and
	// weighted-fair scheduling. Empty keeps anonymous single-flow
	// operation, bit-for-bit compatible with pre-tenant deployments.
	Tenants []TenantConfig
	// TenantQueueDepth bounds each tenant's queued (not running) jobs
	// (0 = no per-tenant bound; only the global QueueDepth applies). A
	// tenant's own TenantConfig.QueueDepth overrides it.
	TenantQueueDepth int
	// Clock is the time source for rate-limit buckets (nil = time.Now).
	// Tests inject a fake clock so limiter tests never sleep.
	Clock func() time.Time
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.KernelCacheSize <= 0 {
		c.KernelCacheSize = 16
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 512
	}
	if c.RetainFor == 0 {
		c.RetainFor = time.Hour
	}
	return c
}

// job is the server-side record of one estimation request.
type job struct {
	id        string
	req       JobRequest
	tenant    string // owning tenant name ("" = anonymous)
	class     int    // priority class (classBatch/classNormal/classInteractive)
	circuit   string // display name
	state     JobState
	created   time.Time
	started   time.Time
	finished  time.Time
	cacheHit  bool
	progress  *Progress
	result    *maxpower.Result
	errMsg    string
	cancel    context.CancelFunc
	cancelled bool // DELETE arrived (possibly before the worker picked it up)
	// resume is the last journaled checkpoint, set during replay; the
	// worker hands it to the estimator so the job continues where the
	// crashed process stopped.
	resume *evt.Checkpoint
	// recovered marks a job re-enqueued by journal replay.
	recovered bool
}

// Manager owns the job table, the bounded work queue, the worker pool,
// and the circuit/population caches. All exported methods are safe for
// concurrent use.
type Manager struct {
	cfg ManagerConfig

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	seq   int64

	sched       *sched
	wg          sync.WaitGroup
	closed      bool
	janitorStop chan struct{}
	healthStop  chan struct{}

	// Tenant limiter state, keyed by API key (auth) and by name
	// (scheduling, charging). Buckets are touched only under m.mu.
	tenantsByKey  map[string]*tenantState
	tenantsByName map[string]*tenantState

	baseCtx    context.Context
	baseCancel context.CancelFunc

	circuits *lru[*netlist.Circuit]
	pops     *lru[*maxpower.Population]
	// kernels deduplicates compiled simulation programs (flat striped
	// kernels keyed on circuit + delay model) across streaming jobs,
	// population builds, and fleet shards — the third cache beside
	// circuits and pops, living in maxpower so library callers share
	// the implementation.
	kernels *maxpower.KernelCache

	// journal is non-nil when cfg.DataDir is set; crashed simulates a
	// process death for chaos tests (outcome recording stops, as it
	// would when the process is gone).
	journal *journal
	crashed atomic.Bool

	// Fleet state: the worker-side shard table (every instance serves
	// shards) and, in coordinator mode, the fan-out coordinator.
	shards     map[string]*shardJob
	shardOrder []string
	shardQueue chan *shardJob
	fleetCoord *fleet.Coordinator

	shardsExecuted  atomic.Int64
	shardsFailed    atomic.Int64
	shardsCancelled atomic.Int64
	batchFallbacks  atomic.Int64

	loadShed      atomic.Int64
	rateLimited   atomic.Int64
	quotaExceeded atomic.Int64

	jobsSubmitted    atomic.Int64
	jobsCompleted    atomic.Int64
	jobsFailed       atomic.Int64
	jobsCancelled    atomic.Int64
	jobsRecovered    atomic.Int64
	jobsEvicted      atomic.Int64
	jobsDeadline     atomic.Int64
	panics           atomic.Int64
	rejectedFull     atomic.Int64
	rejectedShutdown atomic.Int64
	rejectedInvalid  atomic.Int64
	journalErrs      atomic.Int64
	pairsSimulated   atomic.Int64
	unitsSimulated   atomic.Int64
	workersBusy      atomic.Int64
	simNS            atomic.Int64
	mleNS            atomic.Int64
	specStripes      atomic.Int64
	specPatched      atomic.Int64
	specFallbacks    atomic.Int64

	// OnProgress, when non-nil, is invoked after each job progress
	// update (job status already reflects the snapshot). It runs on the
	// worker goroutine — the observation seam for logging and tests.
	// Set it before the first Submit; it is read under the manager lock.
	OnProgress func(jobID string, p Progress)
}

// NewManager builds a Manager and starts its worker pool. When
// cfg.DataDir is set it first recovers from the journal: terminal jobs
// are restored with their results, interrupted jobs are re-enqueued
// from their last checkpoint (ahead of any new submissions), and the
// journal is compacted to one submit + latest checkpoint/terminal
// record per retained job. The error is non-nil only for journal
// problems the Manager cannot start without (an unwritable data dir).
func NewManager(cfg ManagerConfig) (*Manager, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		jobs:       make(map[string]*job),
		shards:     make(map[string]*shardJob),
		baseCtx:    ctx,
		baseCancel: cancel,
		circuits:   newLRU[*netlist.Circuit](8),
		pops:       newLRU[*maxpower.Population](cfg.CacheSize),
		kernels:    maxpower.NewKernelCache(cfg.KernelCacheSize),
	}
	// Mirror kernel-cache activity onto the process-wide expvars, the
	// same split the population cache gets in resolvePopulation. The
	// per-instance numbers come straight from the cache in Stats().
	m.kernels.OnEvent = func(hit bool, compileNS int64) {
		if hit {
			expKernelHits.Add(1)
			return
		}
		expKernelMisses.Add(1)
		expKernelCompileNS.Add(compileNS)
	}
	if len(cfg.FleetWorkers) > 0 {
		m.fleetCoord = &fleet.Coordinator{
			Workers:          cfg.FleetWorkers,
			ShardTimeout:     cfg.ShardTimeout,
			RetryBackoff:     cfg.RetryBackoff,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
		}
	}
	m.tenantsByKey = make(map[string]*tenantState)
	m.tenantsByName = make(map[string]*tenantState)
	for _, tc := range cfg.Tenants {
		if err := tc.validate(); err != nil {
			cancel()
			return nil, err
		}
		if m.tenantsByName[tc.Name] != nil {
			cancel()
			return nil, fmt.Errorf("service: duplicate tenant name %q", tc.Name)
		}
		if m.tenantsByKey[tc.Key] != nil {
			cancel()
			return nil, fmt.Errorf("service: duplicate api key (tenant %s)", tc.Name)
		}
		ts := newTenantState(tc, m.now())
		m.tenantsByKey[tc.Key] = ts
		m.tenantsByName[tc.Name] = ts
	}
	m.sched = newSched(cfg.QueueDepth, func(tenant string) int {
		if ts := m.tenantsByName[tenant]; ts != nil && ts.cfg.QueueDepth > 0 {
			return ts.cfg.QueueDepth
		}
		return cfg.TenantQueueDepth
	}, func(tenant string) float64 {
		return m.tenantsByName[tenant].weight()
	})
	var pending []*job
	if cfg.DataDir != "" {
		jn, recs, _, err := newJournal(cfg.DataDir)
		if err != nil {
			cancel()
			return nil, err
		}
		m.journal = jn
		pending = m.replay(recs)
	}
	// Interrupted jobs are re-admitted past the depth bounds: work that
	// was already accepted (and checkpointed) is never shed by a
	// restart. The queue may start over capacity — degraded mode — which
	// blocks new submissions until the recovered backlog drains.
	for _, j := range pending {
		m.sched.enqueueRecovered(j)
	}
	if m.journal != nil {
		if err := m.journal.compact(m.snapshotRecords()); err != nil {
			cancel()
			return nil, err
		}
	}
	m.shardQueue = make(chan *shardJob, cfg.QueueDepth)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(2)
		go m.worker()
		go m.shardWorker()
	}
	if cfg.RetainFor > 0 {
		m.janitorStop = make(chan struct{})
		m.wg.Add(1)
		go m.janitor()
	}
	if m.fleetCoord != nil && cfg.HealthInterval >= 0 {
		m.healthStop = make(chan struct{})
		m.wg.Add(1)
		go m.healthLoop()
	}
	return m, nil
}

// now is the limiter clock (cfg.Clock for tests, wall clock otherwise).
func (m *Manager) now() time.Time {
	if m.cfg.Clock != nil {
		return m.cfg.Clock()
	}
	return time.Now()
}

// Authenticate resolves an API key to a tenant name. With no tenants
// configured every caller is the anonymous tenant "" (legacy mode);
// with tenants, an unknown key is refused.
func (m *Manager) Authenticate(key string) (string, bool) {
	if len(m.tenantsByName) == 0 {
		return "", true
	}
	ts, ok := m.tenantsByKey[key]
	if !ok {
		return "", false
	}
	return ts.cfg.Name, true
}

// healthLoop probes fleet workers' /healthz on a timer, feeding the
// coordinator's circuit breakers (coordinator mode only).
func (m *Manager) healthLoop() {
	defer m.wg.Done()
	interval := m.cfg.HealthInterval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.healthStop:
			return
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.fleetCoord.ProbeWorkers(m.baseCtx)
		}
	}
}

// replay folds journal records into the job table and returns the jobs
// to re-enqueue, in submission order: everything that was queued or
// running when the previous process died. Terminal jobs are restored
// as-is; jobs evicted by the previous process stay gone.
//
// Submit records are applied first, in a pass of their own. SubmitAs
// journals a job's submit record after the job is visible to workers, so
// a fast job's start, checkpoint or even terminal record can precede it
// in the file; replay must not drop those (a dropped terminal would
// re-run a finished job after a restart).
func (m *Manager) replay(recs []record) []*job {
	for _, rec := range recs {
		if rec.Type != recSubmit || rec.Req == nil || m.jobs[rec.Job] != nil {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(rec.Job, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		// Pre-tenant (PR 4-era) records carry no tenant and no
		// priority; both default to the legacy flow (anonymous,
		// normal), so old journals replay unchanged.
		class, err := classOf(rec.Req.Options.Priority)
		if err != nil {
			class = classNormal
		}
		j := &job{
			id:      rec.Job,
			req:     *rec.Req,
			tenant:  rec.Tenant,
			class:   class,
			circuit: displayName(*rec.Req),
			state:   StateQueued,
			created: rec.Time,
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	for _, rec := range recs {
		switch rec.Type {
		case recStart:
			if j := m.jobs[rec.Job]; j != nil {
				j.started = rec.Time
			}
		case recCheckpoint:
			j := m.jobs[rec.Job]
			if j == nil || rec.Checkpoint == nil {
				continue
			}
			// A corrupt checkpoint would poison the resumed estimate;
			// keep the previous good one instead.
			if err := rec.Checkpoint.Validate(); err == nil {
				j.resume = rec.Checkpoint
			}
		case recTerminal:
			j := m.jobs[rec.Job]
			if j == nil || !rec.State.Terminal() {
				continue
			}
			j.state = rec.State
			j.finished = rec.Time
			j.errMsg = rec.Error
			j.cacheHit = rec.CacheHit
			j.result = rec.Result.toResult()
		case recEvict:
			if j := m.jobs[rec.Job]; j != nil {
				delete(m.jobs, rec.Job)
				m.order = removeID(m.order, rec.Job)
			}
		}
	}
	var pending []*job
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.state = StateQueued
		j.started = time.Time{}
		j.recovered = true
		m.jobsRecovered.Add(1)
		expJobsRecovered.Add(1)
		pending = append(pending, j)
	}
	return pending
}

// snapshotRecords serializes the current job table as a compacted
// journal: one submit record per job, plus its latest checkpoint (live
// jobs) or terminal record (finished ones).
func (m *Manager) snapshotRecords() []record {
	m.mu.Lock()
	defer m.mu.Unlock()
	var recs []record
	for _, id := range m.order {
		j := m.jobs[id]
		recs = append(recs, record{Type: recSubmit, Job: j.id, Time: j.created, Req: &j.req, Tenant: j.tenant})
		if !j.started.IsZero() {
			recs = append(recs, record{Type: recStart, Job: j.id, Time: j.started})
		}
		switch {
		case j.state.Terminal():
			recs = append(recs, record{
				Type: recTerminal, Job: j.id, Time: j.finished,
				State: j.state, Error: j.errMsg, CacheHit: j.cacheHit,
				Result: toJournalResult(j.result),
			})
		case j.resume != nil:
			recs = append(recs, record{Type: recCheckpoint, Job: j.id, Time: j.created, Checkpoint: j.resume})
		}
	}
	return recs
}

func removeID(order []string, id string) []string {
	for i, v := range order {
		if v == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// journalAppend writes a record if journaling is on. Journal failures
// never fail the job — the daemon trades durability for availability
// and surfaces the problem through the journal-error counters.
func (m *Manager) journalAppend(rec record) {
	if m.journal == nil {
		return
	}
	if err := m.journal.append(rec); err != nil {
		m.journalErrs.Add(1)
		expJournalErrors.Add(1)
	}
}

// Submit enqueues an anonymous-tenant job — the pre-tenant API,
// unchanged for legacy callers and tests.
func (m *Manager) Submit(req JobRequest) (string, error) {
	return m.SubmitAs(req, "")
}

// SubmitAs validates nothing (the server already has) and runs the
// tenant's admission pipeline: rate limits and quota, then weighted-
// fair enqueue with depth bounds and priority load shedding. The
// submit record is journaled (and fsync'd) before SubmitAs returns, so
// an acknowledged job survives a crash.
func (m *Manager) SubmitAs(req JobRequest, tenant string) (string, error) {
	class, err := classOf(req.Options.Priority)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.rejectedShutdown.Add(1)
		expRejectedShutdown.Add(1)
		return "", ErrShuttingDown
	}
	if rle := m.tenantsByName[tenant].admit(m.now()); rle != nil {
		m.mu.Unlock()
		if rle.Code == codeQuotaExceeded {
			m.quotaExceeded.Add(1)
			expQuotaExceeded.Add(1)
		} else {
			m.rateLimited.Add(1)
			expRateLimited.Add(1)
		}
		return "", rle
	}
	m.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.seq),
		req:     req,
		tenant:  tenant,
		class:   class,
		circuit: displayName(req),
		state:   StateQueued,
		created: time.Now(),
	}
	shed, err := m.sched.enqueue(j)
	if err != nil {
		m.seq-- // the ID was never exposed; reuse it
		m.mu.Unlock()
		m.rejectedFull.Add(1)
		expRejectedFull.Add(1)
		return "", err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	var shedRec *record
	if shed != nil {
		// The victim was displaced by a strictly higher-priority job:
		// finalize it as cancelled, with the shed cause on record.
		shed.cancelled = true
		shed.state = StateCancelled
		shed.finished = time.Now()
		shed.errMsg = "load shed: displaced by higher-priority work"
		m.jobsCancelled.Add(1)
		expJobsCancelled.Add(1)
		m.loadShed.Add(1)
		expLoadShed.Add(1)
		shedRec = &record{Type: recTerminal, Job: shed.id, Time: shed.finished, State: StateCancelled, Error: shed.errMsg}
	}
	evicted := m.evictLocked(time.Now())
	m.mu.Unlock()
	m.jobsSubmitted.Add(1)
	expJobsSubmitted.Add(1)
	m.journalAppend(record{Type: recSubmit, Job: j.id, Time: j.created, Req: &j.req, Tenant: j.tenant})
	if shedRec != nil {
		m.journalAppend(*shedRec)
	}
	for _, rec := range evicted {
		m.journalAppend(rec)
	}
	return j.id, nil
}

// NoteRejectedInvalid counts a submission the HTTP edge refused before
// it reached Submit (body too large, malformed JSON, failed validation),
// so load shedding is observable alongside queue-full rejections.
func (m *Manager) NoteRejectedInvalid() {
	m.rejectedInvalid.Add(1)
	expRejectedInvalid.Add(1)
}

func displayName(req JobRequest) string {
	if req.Circuit != "" {
		return req.Circuit
	}
	// First token of ".bench" comments is not reliable; report by hash.
	return circuitKey("", req.Bench)
}

// Status returns the job's current status snapshot.
func (m *Manager) Status(id string) (JobStatus, error) {
	return m.StatusFor(id, "")
}

// StatusFor is Status scoped to a tenant: a job owned by a different
// tenant is ErrNotFound (existence is not leaked across tenants).
// Tenant "" is unscoped — the anonymous/legacy view.
func (m *Manager) StatusFor(id, tenant string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !visibleTo(j, tenant) {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// visibleTo reports whether a tenant may see a job. The unscoped view
// (tenant "") sees everything; it is only reachable when no tenants are
// configured (the server authenticates before resolving a tenant).
func visibleTo(j *job, tenant string) bool {
	return tenant == "" || j.tenant == tenant
}

// List returns the status of every job in submission order.
func (m *Manager) List() []JobStatus {
	return m.ListFor("")
}

// ListFor is List scoped to a tenant ("" = unscoped).
func (m *Manager) ListFor(tenant string) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; visibleTo(j, tenant) {
			out = append(out, j.statusLocked())
		}
	}
	return out
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Circuit:   j.circuit,
		Tenant:    j.tenant,
		Priority:  className(j.class),
		Streaming: j.req.Streaming,
		CacheHit:  j.cacheHit,
		Created:   j.created,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		switch {
		case !j.finished.IsZero():
			st.DurationMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		default:
			st.DurationMS = float64(time.Since(j.started)) / float64(time.Millisecond)
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	return st
}

// Result returns the final result of a done job.
func (m *Manager) Result(id string) (JobResult, error) {
	return m.ResultFor(id, "")
}

// ResultFor is Result scoped to a tenant ("" = unscoped).
func (m *Manager) ResultFor(id, tenant string) (JobResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !visibleTo(j, tenant) {
		return JobResult{}, ErrNotFound
	}
	if j.result == nil {
		if j.state.Terminal() {
			return JobResult{}, fmt.Errorf("%w: job %s %s: %s", ErrNotFound, id, j.state, j.errMsg)
		}
		return JobResult{}, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
	}
	r := j.result
	return JobResult{
		ID:           j.id,
		Circuit:      j.circuit,
		Estimate:     finite(r.Estimate),
		CILow:        finite(r.CILow),
		CIHigh:       finite(r.CIHigh),
		RelErr:       finite(r.RelErr),
		HyperSamples: r.HyperSamples,
		Units:        r.Units,
		Converged:    r.Converged,
		ObservedMax:  finite(r.ObservedMax),
		SigmaSq:      finite(r.SigmaSq),
		CacheHit:     j.cacheHit,
		State:        j.state,
	}, nil
}

// Cancel stops a queued or running job. Queued jobs are marked
// cancelled immediately (and removed from the scheduler); running jobs
// have their context cancelled and finish at the next hyper-sample
// boundary.
func (m *Manager) Cancel(id string) error {
	return m.CancelFor(id, "")
}

// CancelFor is Cancel scoped to a tenant ("" = unscoped).
func (m *Manager) CancelFor(id, tenant string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || !visibleTo(j, tenant) {
		m.mu.Unlock()
		return ErrNotFound
	}
	var terminalRec *record
	switch {
	case j.state.Terminal():
		state := j.state
		m.mu.Unlock()
		return fmt.Errorf("%w: job %s is already %s", ErrFinished, id, state)
	case j.state == StateQueued:
		j.cancelled = true
		j.state = StateCancelled
		j.finished = time.Now()
		// Drop it from the scheduler so it stops occupying queue depth;
		// if a worker won the race the state check makes it a no-op skip.
		m.sched.remove(j)
		m.jobsCancelled.Add(1)
		expJobsCancelled.Add(1)
		terminalRec = &record{Type: recTerminal, Job: j.id, Time: j.finished, State: StateCancelled}
	default: // running
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	if terminalRec != nil {
		m.journalAppend(*terminalRec)
	}
	return nil
}

// Stats returns this instance's counters.
func (m *Manager) Stats() Stats {
	hits, misses := m.pops.stats()
	ks := m.kernels.Stats()
	var queued, running int64
	m.mu.Lock()
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	m.mu.Unlock()
	fs := m.FleetStats()
	return Stats{
		JobsQueued:       queued,
		JobsRunning:      running,
		QueueDepthByFlow: m.sched.depths(),
		LoadShed:         m.loadShed.Load(),
		RateLimited:      m.rateLimited.Load(),
		QuotaExceeded:    m.quotaExceeded.Load(),

		FleetBackoffNS:    fs.BackoffNS,
		FleetBreakerTrips: fs.BreakerTrips,
		FleetWorkersOpen:  fs.WorkersOpen,

		JobsSubmitted:   m.jobsSubmitted.Load(),
		JobsCompleted:   m.jobsCompleted.Load(),
		JobsFailed:      m.jobsFailed.Load(),
		JobsCancelled:   m.jobsCancelled.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		PairsSimulated:  m.pairsSimulated.Load(),
		UnitsSimulated:  m.unitsSimulated.Load(),
		WorkersBusy:     m.workersBusy.Load(),
		QueueDepth:      int64(m.sched.depth()),
		PopulationsHeld: int64(m.pops.len()),
		SimNS:           m.simNS.Load(),
		MLENS:           m.mleNS.Load(),

		KernelCacheHits:   ks.Hits,
		KernelCacheMisses: ks.Misses,
		KernelCompileNS:   ks.CompileNS,
		KernelsHeld:       int64(m.kernels.Len()),
		SpecStripes:       m.specStripes.Load(),
		SpecPatchedWords:  m.specPatched.Load(),
		SpecFallbacks:     m.specFallbacks.Load(),

		JobsRecovered:    m.jobsRecovered.Load(),
		JobsEvicted:      m.jobsEvicted.Load(),
		DeadlineExceeded: m.jobsDeadline.Load(),
		Panics:           m.panics.Load(),
		RejectedFull:     m.rejectedFull.Load(),
		RejectedShutdown: m.rejectedShutdown.Load(),
		RejectedInvalid:  m.rejectedInvalid.Load(),
		JournalErrors:    m.journalErrs.Load(),

		ShardsExecuted:        m.shardsExecuted.Load(),
		ShardsFailed:          m.shardsFailed.Load(),
		ShardsCancelled:       m.shardsCancelled.Load(),
		BatchFallbacks:        m.batchFallbacks.Load(),
		FleetShardsDispatched: fs.ShardsDispatched,
		FleetShardsRetried:    fs.ShardsRetried,
		FleetShardsCancelled:  fs.ShardsCancelled,
	}
}

// Shutdown stops accepting jobs and drains the pool: queued and running
// jobs keep going until done or until ctx expires, at which point the
// still-running estimations are cancelled at their next hyper-sample
// boundary and recorded as cancelled. Always returns after the pool has
// fully stopped.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.sched.close()
	close(m.shardQueue)
	if m.janitorStop != nil {
		close(m.janitorStop)
	}
	if m.healthStop != nil {
		close(m.healthStop)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		m.baseCancel() // force running jobs to stop at the next boundary
		<-done
		err = ctx.Err()
	}
	// The pool has drained: every terminal record is journaled, safe to
	// close the handle.
	if m.journal != nil {
		m.journal.close()
	}
	return err
}

// worker is the pool loop: pull in weighted-fair order, run, repeat
// until the scheduler closes and drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.sched.next()
		if !ok {
			return
		}
		m.runJob(j)
	}
}

// jobTimeout resolves the effective wall-time cap for a job: its own
// timeout_ms, clamped by the manager-wide ceiling. 0 = unlimited.
func jobTimeout(timeoutMS int64, ceiling time.Duration) time.Duration {
	d := time.Duration(timeoutMS) * time.Millisecond
	if ceiling > 0 && (d <= 0 || d > ceiling) {
		d = ceiling
	}
	return d
}

// runJob executes one job end to end and records its outcome.
func (m *Manager) runJob(j *job) {
	if m.crashed.Load() {
		return // simulated process death: the worker is "gone"
	}
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if d := jobTimeout(j.req.Options.TimeoutMS, m.cfg.MaxJobDuration); d > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, d)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	defer cancel()
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	m.mu.Unlock()
	m.journalAppend(record{Type: recStart, Job: j.id, Time: j.started})

	m.workersBusy.Add(1)
	expWorkersBusy.Add(1)
	defer func() {
		m.workersBusy.Add(-1)
		expWorkersBusy.Add(-1)
	}()

	res, cacheHit, err := m.executeRecover(ctx, j)

	if m.crashed.Load() {
		// Simulated process death: a real crash records nothing past this
		// point — no state transition, no terminal record. Replay finds
		// the job's last checkpoint and resumes it.
		return
	}

	m.mu.Lock()
	j.finished = time.Now()
	j.cacheHit = cacheHit
	deadline := ctx.Err() == context.DeadlineExceeded
	switch {
	case err == nil && deadline:
		// The job hit its wall-time cap: the estimator stopped at a
		// hyper-sample boundary and returned the partial estimate, which
		// the job keeps.
		j.state = StateCancelled
		j.result = &res
		j.errMsg = "deadline exceeded before convergence"
		m.jobsCancelled.Add(1)
		expJobsCancelled.Add(1)
		m.jobsDeadline.Add(1)
		expJobsDeadline.Add(1)
	case err == nil && ctx.Err() != nil:
		// The estimator returned a partial result after cancellation
		// (job-level DELETE or shutdown deadline).
		j.state = StateCancelled
		j.result = &res
		j.errMsg = "cancelled before convergence"
		m.jobsCancelled.Add(1)
		expJobsCancelled.Add(1)
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		m.jobsFailed.Add(1)
		expJobsFailed.Add(1)
	default:
		j.state = StateDone
		j.result = &res
		m.jobsCompleted.Add(1)
		expJobsCompleted.Add(1)
	}
	if j.result != nil {
		// Units is the estimator's cost ("# of units", the paper's cost
		// metric). For streaming jobs every unit is also one live pair
		// simulation; population-mode draws hit precomputed powers, whose
		// simulations were counted when the population was built.
		//
		// The units quota is post-paid: the actual cost lands on the
		// tenant's bucket now, possibly driving the balance negative,
		// which blocks that tenant's next submission until the refill
		// catches up (the cost is unknowable at admission time).
		if ts := m.tenantsByName[j.tenant]; ts != nil && ts.units != nil {
			ts.units.charge(m.now(), float64(res.Units))
		}
		m.unitsSimulated.Add(int64(res.Units))
		expUnitsSimulated.Add(int64(res.Units))
		if j.req.Streaming {
			m.pairsSimulated.Add(int64(res.Units))
			expPairsSimulated.Add(int64(res.Units))
		}
		// Wall-time split from the estimator; population-build time was
		// already added to the sim side in execute.
		m.simNS.Add(int64(res.SimTime))
		expSimNS.Add(int64(res.SimTime))
		m.mleNS.Add(int64(res.FitTime))
		expMLENS.Add(int64(res.FitTime))
		// Execution-strategy counters from the speculative kernel (zero
		// for population-mode and fleet-folded results).
		m.specStripes.Add(int64(res.Engine.SpecStripes))
		m.specPatched.Add(int64(res.Engine.SpecPatched))
		m.specFallbacks.Add(int64(res.Engine.SpecFallbacks))
		expSpecStripes.Add(int64(res.Engine.SpecStripes))
		expSpecPatched.Add(int64(res.Engine.SpecPatched))
		expSpecFallbacks.Add(int64(res.Engine.SpecFallbacks))
	}
	term := record{
		Type: recTerminal, Job: j.id, Time: j.finished,
		State: j.state, Error: j.errMsg, CacheHit: j.cacheHit,
		Result: toJournalResult(j.result),
	}
	m.mu.Unlock()
	m.journalAppend(term)
}

// executeRecover runs execute behind a recover barrier: a panic anywhere
// in job execution — circuit parsing, population build, the estimator —
// fails that one job with the stack in its error message and leaves the
// worker, the pool, and every other job untouched.
func (m *Manager) executeRecover(ctx context.Context, j *job) (res maxpower.Result, cacheHit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			expPanics.Add(1)
			res, cacheHit = maxpower.Result{}, false
			err = fmt.Errorf("service: panic in job %s: %v\n%s", j.id, r, debug.Stack())
		}
	}()
	if ferr := faultpoint.Hit("service/worker-run"); ferr != nil {
		return maxpower.Result{}, false, ferr
	}
	return m.execute(ctx, j)
}

// execute resolves the circuit, picks streaming vs. population mode,
// and runs the estimator with the progress observer attached. In
// coordinator mode (cfg.FleetWorkers set) the job is instead sharded
// and fanned out to the fleet.
func (m *Manager) execute(ctx context.Context, j *job) (maxpower.Result, bool, error) {
	if m.fleetCoord != nil {
		return m.executeFleet(ctx, j)
	}
	c, err := m.resolveCircuit(j.req)
	if err != nil {
		return maxpower.Result{}, false, err
	}
	spec := j.req.Population.toLib(m.cfg.SimWorkers)
	opt := j.req.Options.toLib()
	opt.Kernels = m.kernels
	opt.Progress = func(p maxpower.ProgressSnapshot) { m.recordProgress(j, p) }
	// Resume from the last journaled checkpoint when replay attached one;
	// the estimator continues the interrupted run bit-identically.
	opt.Checkpoint = j.resume
	if m.journal != nil {
		opt.OnCheckpoint = func(cp maxpower.Checkpoint) {
			if ferr := faultpoint.Hit("service/checkpoint"); ferr != nil {
				return // simulated checkpoint loss: this boundary goes unjournaled
			}
			m.journalAppend(record{Type: recCheckpoint, Job: j.id, Time: time.Now(), Checkpoint: &cp})
		}
	}

	if j.req.Streaming {
		// Job-level worker budget: the request picks its parallelism, the
		// manager's SimWorkers is the ceiling. Worker count never changes
		// the result (the batched sampling seam is deterministic), so this
		// is purely a resource-isolation knob.
		if budget := m.cfg.SimWorkers; budget > 0 && (opt.Workers <= 0 || opt.Workers > budget) {
			opt.Workers = budget
		}
		opt.OnBatchFallback = m.noteBatchFallbacks
		res, err := maxpower.EstimateStreamingContext(ctx, c, spec, opt)
		return res, false, err
	}

	pop, hit, err := m.resolvePopulation(c, j.req, spec)
	if err != nil {
		return maxpower.Result{}, false, err
	}
	res, err := maxpower.EstimateContext(ctx, pop, opt)
	return res, hit, err
}

// resolvePopulation returns the job's finite population, reusing built
// instances through the population LRU — shared between whole jobs and
// fleet shards, so every shard of a job reuses one build per worker.
func (m *Manager) resolvePopulation(c *netlist.Circuit, req JobRequest, spec maxpower.PopulationSpec) (*maxpower.Population, bool, error) {
	ck := circuitKey(req.Circuit, req.Bench)
	pk := populationKey(ck, spec)
	pop, hit := m.pops.get(pk)
	if hit {
		expCacheHits.Add(1)
		return pop, true, nil
	}
	expCacheMisses.Add(1)
	if ferr := faultpoint.Hit("service/population-build"); ferr != nil {
		return nil, false, ferr
	}
	buildStart := time.Now()
	pop, err := maxpower.BuildPopulationKernels(c, spec, m.kernels)
	if err != nil {
		return nil, false, err
	}
	// A population build is pure simulation work; count its wall time
	// on the sim side of the sim/MLE split.
	buildNS := int64(time.Since(buildStart))
	m.simNS.Add(buildNS)
	expSimNS.Add(buildNS)
	m.pairsSimulated.Add(int64(pop.Size()))
	expPairsSimulated.Add(int64(pop.Size()))
	m.pops.add(pk, pop)
	return pop, false, nil
}

// resolveCircuit returns the job's circuit, reusing parsed/generated
// instances through the circuit LRU.
func (m *Manager) resolveCircuit(req JobRequest) (*netlist.Circuit, error) {
	key := circuitKey(req.Circuit, req.Bench)
	if c, ok := m.circuits.get(key); ok {
		return c, nil
	}
	var (
		c   *netlist.Circuit
		err error
	)
	if req.Bench != "" {
		c, err = maxpower.LoadBench(key, strings.NewReader(req.Bench))
	} else {
		c, err = maxpower.Circuit(req.Circuit)
	}
	if err != nil {
		return nil, err
	}
	m.circuits.add(key, c)
	return c, nil
}

// evictLocked enforces the retention policy on terminal jobs: drop
// everything finished longer than RetainFor ago, then the oldest-
// finished beyond the RetainJobs count. Queued and running jobs are
// never evicted, so the table stays bounded without ever losing live
// work. Caller holds m.mu; the returned evict records are journaled by
// the caller after unlocking (fsync under the table lock would stall
// every API request).
func (m *Manager) evictLocked(now time.Time) []record {
	var victims []string
	if ttl := m.cfg.RetainFor; ttl > 0 {
		cutoff := now.Add(-ttl)
		for _, id := range m.order {
			j := m.jobs[id]
			if j.state.Terminal() && j.finished.Before(cutoff) {
				victims = append(victims, id)
			}
		}
		for _, id := range victims {
			delete(m.jobs, id)
			m.order = removeID(m.order, id)
		}
	}
	if keep := m.cfg.RetainJobs; keep > 0 {
		var term []string
		for _, id := range m.order {
			if m.jobs[id].state.Terminal() {
				term = append(term, id)
			}
		}
		if excess := len(term) - keep; excess > 0 {
			sort.SliceStable(term, func(a, b int) bool {
				return m.jobs[term[a]].finished.Before(m.jobs[term[b]].finished)
			})
			for _, id := range term[:excess] {
				delete(m.jobs, id)
				m.order = removeID(m.order, id)
				victims = append(victims, id)
			}
		}
	}
	recs := make([]record, 0, len(victims))
	for _, id := range victims {
		m.jobsEvicted.Add(1)
		expJobsEvicted.Add(1)
		recs = append(recs, record{Type: recEvict, Job: id, Time: now})
	}
	return recs
}

// janitor ages out terminal jobs on a timer, so the table shrinks even
// when no submissions arrive to trigger eviction inline.
func (m *Manager) janitor() {
	defer m.wg.Done()
	interval := m.cfg.RetainFor / 10
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-m.baseCtx.Done():
			return
		case now := <-t.C:
			m.mu.Lock()
			recs := m.evictLocked(now)
			m.mu.Unlock()
			for _, rec := range recs {
				m.journalAppend(rec)
			}
		}
	}
}

// killForTest simulates a process crash for chaos tests. Unlike
// Shutdown it records no outcomes: running estimations are interrupted
// at their next hyper-sample boundary and simply vanish — no state
// transition, no terminal record — exactly the journal a SIGKILL'd
// process leaves behind. The journal handle is closed so a successor
// Manager can replay the same data dir.
func (m *Manager) killForTest() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.crashed.Store(true)
	m.sched.close()
	close(m.shardQueue)
	if m.janitorStop != nil {
		close(m.janitorStop)
	}
	if m.healthStop != nil {
		close(m.healthStop)
	}
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}

// recordProgress stores the estimator snapshot on the job and fires the
// OnProgress hook.
func (m *Manager) recordProgress(j *job, p maxpower.ProgressSnapshot) {
	snap := Progress{
		HyperSamples: p.HyperSamples,
		Estimate:     finite(p.Estimate),
		CILow:        finite(p.CILow),
		CIHigh:       finite(p.CIHigh),
		HalfWidth:    finite((p.CIHigh - p.CILow) / 2),
		RelErr:       finite(p.RelErr),
		Units:        p.Units,
		Converged:    p.Converged,
	}
	m.mu.Lock()
	j.progress = &snap
	hook := m.OnProgress
	m.mu.Unlock()
	if hook != nil {
		hook(j.id, snap)
	}
}
