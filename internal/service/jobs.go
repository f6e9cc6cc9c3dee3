package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// kernelCacheSize is the compiled-kernel LRU capacity in programs, one
// per circuit and delay model.
const kernelCacheSize = 16

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
	task
	// ord is the job's place in the submission order: retention evicts
	// jobs that finished at the same time in this order.
	ord      int64
	req      JobRequest
	tenant   string // owning tenant name ("" = anonymous)
	class    int    // priority class (classBatch/classNormal/classInteractive)
	circuit  string // display name
	cacheHit bool
	progress *Progress
	result   *maxpower.Result
	// resume is the checkpoint replay rebuilt from the job's journal
	// lines; the worker hands it to the estimator so the job continues
	// where the crashed process stopped, and finishedLocked drops it.
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
	ords  int64    // the next job's ord
	// done holds the terminal jobs in the order retention evicts them:
	// by finish time, ties in submission order.
	done []*job
	seq  int64

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

	// events holds this instance's count of each event; see count.
	events []atomic.Int64

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
		events:     make([]atomic.Int64, numEvents),
		baseCtx:    ctx,
		baseCancel: cancel,
		circuits:   newLRU[*netlist.Circuit](8),
		pops:       newLRU[*maxpower.Population](cfg.CacheSize),
		kernels:    maxpower.NewKernelCache(kernelCacheSize),
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
	if cfg.DataDir != "" {
		if err := m.recoverJournal(cfg.DataDir); err != nil {
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

// recoverJournal opens the journal in dir, replays it into the job
// table, re-admits the interrupted jobs and compacts the file.
// Interrupted jobs are re-admitted past the depth bounds: work that was
// already accepted (and checkpointed) is never shed by a restart. The
// queue may start over capacity — degraded mode — which blocks new
// submissions until the recovered backlog drains.
func (m *Manager) recoverJournal(dir string) error {
	jn, recs, skipped, err := newJournal(dir)
	if err != nil {
		return err
	}
	m.journal = jn
	m.count(evJournalSkipped, int64(skipped))
	for _, j := range m.replay(recs) {
		m.sched.enqueueRecovered(j)
	}
	return jn.compact(m.snapshotRecords())
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
			task:    task{kind: jobKind, id: rec.Job, state: StateQueued, created: rec.Time},
			req:     *rec.Req,
			tenant:  rec.Tenant,
			class:   class,
			circuit: displayName(*rec.Req),
		}
		m.jobs[j.id] = j
		m.appendOrderLocked(j)
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
			// The line holds the run's records from rec.From on. One that
			// starts past the records held is a gap (a line before it was
			// lost): skip it, and the job resumes from the longest good
			// prefix. An overlap (a line re-sent after a failed append)
			// replaces the held records past rec.From.
			var held []evt.HyperRecord
			if j.resume != nil {
				held = j.resume.Records
			}
			budget := evt.Config{MaxHyperSamples: j.req.Options.MaxHyperSamples}.Defaults().MaxHyperSamples
			if rec.From < 0 || rec.From > len(held) || rec.From+len(rec.Checkpoint.Records) > budget {
				continue
			}
			// A checkpoint no run of this job can have written would
			// poison the resumed estimate; keep the previous good one
			// instead. The held records passed this check when they were
			// kept, so the line's records and RNG decide, and replay
			// checks each record once. A line with no records fails it,
			// among them a line written before checkpoints carried
			// records, so its job re-runs from the submit record, to the
			// same bits.
			opt := j.req.Options.toLib()
			opt.Checkpoint = rec.Checkpoint
			if err := opt.Validate(); err != nil {
				continue
			}
			cp := *rec.Checkpoint
			cp.Records = append(held[:rec.From], cp.Records...)
			j.resume = &cp
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
			delete(m.jobs, rec.Job)
		}
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return m.jobs[id] == nil })
	var pending []*job
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() {
			j.resume = nil
			m.done = append(m.done, j)
			continue
		}
		j.state = StateQueued
		j.started = time.Time{}
		j.recovered = true
		m.count(evJobsRecovered, 1)
		pending = append(pending, j)
	}
	// A journal holds terminal records in the order they were written,
	// not always in finish order; sort once, stably, so that jobs that
	// finished at the same time stay in submission order.
	slices.SortStableFunc(m.done, func(a, b *job) int { return a.finished.Compare(b.finished) })
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

// appendOrderLocked puts a new job at the end of the submission order.
func (m *Manager) appendOrderLocked(j *job) {
	j.ord = m.ords
	m.ords++
	m.order = append(m.order, j.id)
}

// cancelJobLocked cancels j by cancelLocked and, when that ends it at
// once, files it for retention. The job paths cancel through it, so a
// job becomes terminal only here and in the runner's settle, the two
// callers of finishedLocked.
func (m *Manager) cancelJobLocked(j *job) bool {
	if !m.cancelLocked(&j.task) {
		return false
	}
	m.finishedLocked(j)
	return true
}

// finishedLocked files a job that has just become terminal into m.done
// and drops the checkpoint a recovered job resumed from: nothing reads
// it again. A job finishes after the jobs filed before it unless the
// clock ran back or they were restored from a journal, so the walk back
// from the end is short.
func (m *Manager) finishedLocked(j *job) {
	j.resume = nil
	i := len(m.done)
	for i > 0 && evictsBefore(j, m.done[i-1]) {
		i--
	}
	m.done = slices.Insert(m.done, i, j)
}

// evictsBefore reports whether retention evicts a before b: a finished
// first, or at the same time and was submitted first.
func evictsBefore(a, b *job) bool {
	if c := a.finished.Compare(b.finished); c != 0 {
		return c < 0
	}
	return a.ord < b.ord
}

// journalAppend writes a record if journaling is on and reports
// whether it was written and synced. Journal failures never fail the
// job — the daemon trades durability for availability and surfaces the
// problem through the journal-error counters.
func (m *Manager) journalAppend(rec record) bool {
	if m.journal == nil {
		return false
	}
	if err := m.journal.append(rec); err != nil {
		m.count(evJournalErrors, 1)
		return false
	}
	return true
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
		m.count(evRejectedShutdown, 1)
		return "", ErrShuttingDown
	}
	if rle := m.tenantsByName[tenant].admit(m.now()); rle != nil {
		m.mu.Unlock()
		if rle.Code == codeQuotaExceeded {
			m.count(evQuotaExceeded, 1)
		} else {
			m.count(evRateLimited, 1)
		}
		return "", rle
	}
	// A replayed journal can hold any ID, even the one after a counter
	// that wrapped at the top of its range; never hand out a taken one.
	var id string
	for {
		m.seq++
		if id = fmt.Sprintf("job-%06d", m.seq); m.jobs[id] == nil {
			break
		}
	}
	j := &job{
		task:    task{kind: jobKind, id: id, state: StateQueued, created: time.Now()},
		req:     req,
		tenant:  tenant,
		class:   class,
		circuit: displayName(req),
	}
	shed, err := m.sched.enqueue(j)
	if err != nil {
		m.seq-- // the ID was never exposed; reuse it
		m.mu.Unlock()
		m.count(evRejectedFull, 1)
		return "", err
	}
	m.jobs[j.id] = j
	m.appendOrderLocked(j)
	var shedRec *record
	if shed != nil {
		// The victim was displaced by a strictly higher-priority job:
		// finalize it as cancelled, with the shed cause on record.
		m.cancelJobLocked(shed)
		shed.errMsg = "load shed: displaced by higher-priority work"
		m.count(evLoadShed, 1)
		shedRec = &record{Type: recTerminal, Job: shed.id, Time: shed.finished, State: StateCancelled, Error: shed.errMsg}
	}
	evicted := m.evictLocked(time.Now())
	m.mu.Unlock()
	m.count(evJobsSubmitted, 1)
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
	m.count(evRejectedInvalid, 1)
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
	if j.state.Terminal() {
		state := j.state
		m.mu.Unlock()
		return fmt.Errorf("%w: job %s is already %s", ErrFinished, id, state)
	}
	var terminalRec *record
	if m.cancelJobLocked(j) {
		// Drop it from the scheduler so it stops occupying queue depth;
		// if a worker won the race the state check makes it a no-op skip.
		m.sched.remove(j)
		terminalRec = &record{Type: recTerminal, Job: j.id, Time: j.finished, State: StateCancelled}
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
		LoadShed:         m.counted(evLoadShed),
		RateLimited:      m.counted(evRateLimited),
		QuotaExceeded:    m.counted(evQuotaExceeded),

		FleetBackoffNS:    fs.BackoffNS,
		FleetBreakerTrips: fs.BreakerTrips,
		FleetWorkersOpen:  fs.WorkersOpen,

		JobsSubmitted:   m.counted(evJobsSubmitted),
		JobsCompleted:   m.counted(evJobsCompleted),
		JobsFailed:      m.counted(evJobsFailed),
		JobsCancelled:   m.counted(evJobsCancelled),
		CacheHits:       hits,
		CacheMisses:     misses,
		PairsSimulated:  m.counted(evPairsSimulated),
		UnitsSimulated:  m.counted(evUnitsSimulated),
		WorkersBusy:     m.counted(evWorkersBusy),
		QueueDepth:      int64(m.sched.depth()),
		PopulationsHeld: int64(m.pops.len()),
		SimNS:           m.counted(evSimNS),
		MLENS:           m.counted(evMLENS),

		KernelCacheHits:   ks.Hits,
		KernelCacheMisses: ks.Misses,
		KernelCompileNS:   ks.CompileNS,
		KernelsHeld:       int64(m.kernels.Len()),
		SpecStripes:       m.counted(evSpecStripes),
		SpecPatchedWords:  m.counted(evSpecPatched),
		SpecFallbacks:     m.counted(evSpecFallbacks),

		JobsRecovered:    m.counted(evJobsRecovered),
		JournalSkipped:   m.counted(evJournalSkipped),
		JobsEvicted:      m.counted(evJobsEvicted),
		DeadlineExceeded: m.counted(evJobsDeadline),
		Panics:           m.counted(evPanics),
		RejectedFull:     m.counted(evRejectedFull),
		RejectedShutdown: m.counted(evRejectedShutdown),
		RejectedInvalid:  m.counted(evRejectedInvalid),
		JournalErrors:    m.counted(evJournalErrors),

		ShardsExecuted:        m.counted(evShardsExecuted),
		ShardsFailed:          m.counted(evShardsFailed),
		ShardsCancelled:       m.counted(evShardsCancelled),
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

// worker is the job pool loop: pull in weighted-fair order, run, repeat
// until the scheduler closes and drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.sched.next()
		if !ok {
			return
		}
		m.run(j, jobTimeout(j.req.Options.TimeoutMS, m.cfg.MaxJobDuration))
	}
}

// jobTimeout resolves the effective wall-time cap for a job: its own
// timeout_ms, clamped by the manager-wide ceiling. 0 = unlimited. A
// timeout_ms past the largest Duration (math.MaxInt64 ns, about 292
// years) sets no cap of its own: multiplied out, it would wrap to a
// short or negative one.
func jobTimeout(timeoutMS int64, ceiling time.Duration) time.Duration {
	var d time.Duration
	if timeoutMS > 0 && timeoutMS <= math.MaxInt64/int64(time.Millisecond) {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if ceiling > 0 && (d <= 0 || d > ceiling) {
		d = ceiling
	}
	return d
}

// exec journals the job's start and runs it: on the fleet in
// coordinator mode (cfg.FleetWorkers set), here otherwise.
func (j *job) exec(ctx context.Context, m *Manager) (o outcome) {
	m.journalAppend(record{Type: recStart, Job: j.id, Time: j.started})
	if err := faultpoint.Hit("service/worker-run"); err != nil {
		return outcome{err: err}
	}
	if m.fleetCoord != nil {
		o.res, o.err = m.executeFleet(ctx, j)
	} else {
		o.res, o.cacheHit, o.err = m.execute(ctx, j)
	}
	budget := evt.Config{MaxHyperSamples: j.req.Options.MaxHyperSamples}.Defaults().MaxHyperSamples
	o.finished = o.err == nil && (o.res.Converged || o.res.HyperSamples >= budget)
	return o
}

// settle keeps a job's estimate, partial when cancelled, charges its
// cost, adds it to the counters, and returns the terminal record.
func (j *job) settle(m *Manager, o outcome) *record {
	m.finishedLocked(j)
	j.cacheHit = o.cacheHit
	if o.err == nil {
		res := &o.res
		// The job keeps what ResultFor serves: no route serves the
		// per-hyper-sample trace, and a job restored from the journal has
		// none either.
		res.Trace = nil
		j.result = res
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
		m.count(evUnitsSimulated, int64(res.Units))
		if j.req.Streaming {
			m.count(evPairsSimulated, int64(res.Units))
		}
		// Wall-time split from the estimator; population-build time was
		// already added to the sim side in resolvePopulation.
		m.count(evSimNS, int64(res.SimTime))
		m.count(evMLENS, int64(res.FitTime))
		// Execution-strategy counters from the speculative kernel (zero
		// for population-mode and fleet-folded results).
		m.count(evSpecStripes, int64(res.Engine.SpecStripes))
		m.count(evSpecPatched, int64(res.Engine.SpecPatched))
		m.count(evSpecFallbacks, int64(res.Engine.SpecFallbacks))
	}
	return &record{
		Type: recTerminal, Job: j.id, Time: j.finished,
		State: j.state, Error: j.errMsg, CacheHit: j.cacheHit,
		Result: toJournalResult(j.result),
	}
}

// execute resolves the job's source and runs the estimator with the
// progress observer and the checkpoint hooks attached. The bool reports
// a population cache hit.
func (m *Manager) execute(ctx context.Context, j *job) (maxpower.Result, bool, error) {
	src, opt, hit, err := m.source(j.req)
	if err != nil {
		return maxpower.Result{}, false, err
	}
	opt.Progress = func(p maxpower.Result) { m.recordProgress(j, p) }
	// Resume from the last journaled checkpoint when replay attached one;
	// the estimator continues the interrupted run bit-identically.
	opt.Checkpoint = j.resume
	if m.journal != nil {
		// synced counts the run's records the journal holds. Each line
		// carries the records past it, so a line that was lost or failed
		// is sent again inside the next one.
		synced := 0
		if j.resume != nil {
			synced = len(j.resume.Records)
		}
		opt.OnCheckpoint = func(cp maxpower.Checkpoint) {
			if ferr := faultpoint.Hit("service/checkpoint"); ferr != nil {
				return // simulated checkpoint loss: this boundary goes unjournaled
			}
			cp.Records = cp.Records[synced:]
			if m.journalAppend(record{Type: recCheckpoint, Job: j.id, Time: time.Now(), Checkpoint: &cp, From: synced}) {
				synced += len(cp.Records)
			}
		}
	}
	res, err := maxpower.Run(ctx, src, opt)
	return res, hit, err
}

// source resolves what a job or shard request samples, and the options
// it runs with. A streaming request simulates its circuit on demand: the
// request picks its worker budget and the manager's SimWorkers is the
// ceiling — worker count never changes the result (the batched sampling
// seam is deterministic), so this is purely a resource-isolation knob.
// Otherwise the request samples its population, taken from the LRU or
// built now; hit reports a cache hit.
func (m *Manager) source(req JobRequest) (src maxpower.Source, opt maxpower.EstimateOptions, hit bool, err error) {
	c, err := m.resolveCircuit(req)
	if err != nil {
		return src, opt, false, err
	}
	spec := req.Population.toLib(m.cfg.SimWorkers)
	opt = req.Options.toLib()
	opt.Kernels = m.kernels
	if !req.Streaming {
		pop, hit, err := m.resolvePopulation(c, req, spec)
		return maxpower.FromPopulation(pop), opt, hit, err
	}
	if budget := m.cfg.SimWorkers; budget > 0 && (opt.Workers <= 0 || opt.Workers > budget) {
		opt.Workers = budget
	}
	return maxpower.Stream(c, spec), opt, false, nil
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
	m.count(evSimNS, int64(time.Since(buildStart)))
	m.count(evPairsSimulated, int64(pop.Size()))
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
// work. Both rules take from the front of m.done, so the work is in
// proportion to the victims (and the jobs still ahead of them in the
// submission order). Caller holds m.mu; the returned evict records —
// the TTL's victims in submission order, then the count's in finish
// order — are journaled by the caller after unlocking (fsync under the
// table lock would stall every API request).
func (m *Manager) evictLocked(now time.Time) []record {
	n := 0
	if ttl := m.cfg.RetainFor; ttl > 0 {
		cutoff := now.Add(-ttl)
		for n < len(m.done) && m.done[n].finished.Before(cutoff) {
			n++
		}
	}
	aged := n
	if keep := m.cfg.RetainJobs; keep > 0 && len(m.done)-n > keep {
		n = len(m.done) - keep
	}
	if n == 0 {
		return nil
	}
	victims := m.done[:n]
	slices.SortFunc(victims[:aged], func(a, b *job) int { return cmp.Compare(a.ord, b.ord) })
	recs := make([]record, n)
	for i, j := range victims {
		delete(m.jobs, j.id)
		recs[i] = record{Type: recEvict, Job: j.id, Time: now}
	}
	m.count(evJobsEvicted, int64(n))
	m.dropEvictedLocked(n)
	clear(victims)
	m.done = m.done[n:]
	return recs
}

// dropEvictedLocked removes from m.order the n jobs just deleted from
// m.jobs, keeping the order of the rest. A victim finished before every
// terminal job left, so only live jobs and jobs that finished after it
// can precede it: the walk stops at the last victim and moves only the
// jobs ahead of it.
func (m *Manager) dropEvictedLocked(n int) {
	i := 0
	for dead := 0; dead < n; i++ {
		if m.jobs[m.order[i]] == nil {
			dead++
		}
	}
	k := i
	for p := i - 1; p >= 0; p-- {
		if id := m.order[p]; m.jobs[id] != nil {
			k--
			m.order[k] = id
		}
	}
	clear(m.order[:k])
	m.order = m.order[k:]
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

// recordProgress stores the wire form of the running Result on the job
// and fires the OnProgress hook.
func (m *Manager) recordProgress(j *job, p maxpower.Result) {
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
