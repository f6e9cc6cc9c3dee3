package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/maxpower"
)

// The service-pop workload: a real maxpowerd on loopback under an open
// loop of small jobs from two tenants, each an estimate against one cached
// population, where HTTP, scheduling and the Weibull fit dominate. The
// daemon runs without its journal and no job streams: README.md says why,
// and why the rate is 100 jobs/s.
const (
	serviceRate     = 100.0 // jobs per second
	serviceCircuit  = "C880"
	servicePopSize  = 20000
	servicePopSeed  = 880
	serviceSetups   = 9
	serviceMaxConns = 2 // the load generator's connection bound
)

//go:embed tenants.json
var tenantsJSON []byte

// tenantKeys are the API keys of the tenants in tenants.json.
var tenantKeys = []string{"maxbench-a", "maxbench-b"}

// daemon is one maxpowerd process with its own directory.
type daemon struct {
	cmd     *exec.Cmd
	done    chan error // receives the process's exit once
	stopped bool
	base    string
	log     string
	client  *http.Client
}

// startDaemon starts maxpowerd in dir with the workload's flags and waits
// until it answers /healthz. The daemon inherits this process's CPU
// affinity.
func startDaemon(bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	tenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenants, tenantsJSON, 0o644); err != nil {
		return nil, err
	}
	d := &daemon{
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		log:  filepath.Join(dir, "maxpowerd.log"),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     serviceMaxConns,
				MaxIdleConnsPerHost: serviceMaxConns,
				DisableCompression:  true,
			},
		},
		done: make(chan error, 1),
	}
	logf, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-workers", "2", "-sim-workers", "1", "-tenants-file", tenants)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start maxpowerd: %w", err)
	}
	go func() {
		d.done <- d.cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.stopped = true
			return nil, fmt.Errorf("maxpowerd exited during start-up (%v): %s", err, d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("maxpowerd not healthy after 20s: %s", d.logTail())
		}
	}
}

// stop drains and stops the daemon with SIGTERM, killing it if the drain
// overruns, and waits for the process to end. It may be called again.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(45 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log) // best effort: the tail only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// request is an arrival's POST /v1/jobs body and API key.
func (a arrival) request() (service.JobRequest, string) {
	return service.JobRequest{
		Circuit: serviceCircuit,
		Population: service.PopulationSpec{
			Kind: maxpower.PopHighActivity, Size: servicePopSize, Seed: servicePopSeed, DelayModel: "fanout",
		},
		Options: service.EstimateOptions{Seed: a.Seed},
	}, tenantKeys[a.Tenant]
}

// jobOutcome is what the load generator saw of one job.
type jobOutcome struct {
	due, sent, accepted time.Time
	status              service.JobStatus
	result              service.JobResult
	polls               int
	err                 error
}

// latency runs from the job's due time, not its send time, so a stalled
// generator's wait counts, to the server's finished timestamp.
func (o jobOutcome) latency() time.Duration { return o.status.Finished.Sub(o.due) }

// runJob submits one job, polls its status until it is terminal, and
// fetches the result of a done job.
func (d *daemon) runJob(a arrival, due, sent time.Time) jobOutcome {
	o := jobOutcome{due: due, sent: sent}
	req, key := a.request()
	var sub struct {
		ID string `json:"id"`
	}
	code, err := d.call(http.MethodPost, "/v1/jobs", key, req, &sub)
	o.accepted = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit refused: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	// Latency comes from the server's timestamps, so polling late costs
	// no accuracy, while every poll takes CPU from the jobs themselves:
	// most jobs are done at the first poll.
	wait := 10 * time.Millisecond
	deadline := time.Now().Add(60 * time.Second)
	for {
		time.Sleep(wait)
		o.polls++
		if _, err := d.call(http.MethodGet, "/v1/jobs/"+sub.ID, key, nil, &o.status); err != nil {
			o.err = err
			return o
		}
		if o.status.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			o.err = fmt.Errorf("job %s still %s after 60s", sub.ID, o.status.State)
			return o
		}
		wait = min(2*wait, 80*time.Millisecond)
	}
	if o.status.State != service.StateDone {
		o.err = fmt.Errorf("job %s %s: %s", sub.ID, o.status.State, o.status.Error)
		return o
	}
	if _, err := d.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", key, nil, &o.result); err != nil {
		o.err = err
	}
	return o
}

// call makes one API request and decodes a 2xx body into out.
func (d *daemon) call(method, path, key string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

func (d *daemon) stats() (service.Stats, error) {
	var s service.Stats
	_, err := d.call(http.MethodGet, "/v1/stats", "", nil, &s)
	return s, err
}

// runService runs the service-pop workload: set-up (daemon start,
// health, and a warm-up job that builds the population), the open-loop
// timed phase, and afterwards, untimed, the in-process check that every
// job's estimate bit-matches the library's. With -trace 1 the first
// quarter of the jobs is then replayed in process under tracing.
func runService(opt options) (*runReport, error) {
	rep := newReport(opt)
	bin := filepath.Join(opt.binDir, "maxpowerd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("maxpowerd binary: %w (build it into -bin)", err)
	}
	work, err := os.MkdirTemp(opt.workDir, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	load := time.Duration(opt.seconds) * time.Second
	if opt.smoke {
		load = time.Second
	}
	sched := schedule(opt.seed, serviceRate, load, len(tenantKeys))

	// The load generator (this process), the daemon it starts, the speed
	// reference and the spinner share one CPU, which the spinner keeps
	// from going idle until the timed phase ends.
	cpu := -1
	stopSpin := func() {}
	if cpus, err := allowedCPUs(); err != nil || len(cpus) == 0 {
		rep.warn(fmt.Sprintf("runs unpinned, speed reference in wall time (allowed CPUs %v, %v)", cpus, err))
	} else if err := pinSelf(cpus[0]); err != nil {
		rep.warn(fmt.Sprintf("runs unpinned, speed reference in wall time: %v", err))
	} else {
		cpu = cpus[0]
		if stopSpin, err = startSpinner(cpu); err != nil {
			rep.warn(fmt.Sprintf("the CPU goes idle between jobs: %v", err))
			stopSpin = func() {}
		}
		defer stopSpin()
	}

	setups := serviceSetups
	if opt.trace == 1 {
		setups = 1
	}
	ref := newSpeedRef()
	stopRef, err := ref.background(cpu)
	if err != nil {
		return nil, err
	}
	defer stopRef()
	var (
		d          *daemon
		setupStart []time.Time
		setupTook  []time.Duration
	)
	for j := 0; j < setups; j++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", j))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if d, err = startDaemon(bin, dir); err != nil {
			return nil, err
		}
		warm := d.runJob(arrival{Seed: warmSeed}, t0, t0)
		if warm.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up job: %w", warm.err)
		}
		// Set-up ends when the server finished the warm-up job, not when a
		// status poll noticed.
		setupStart = append(setupStart, t0)
		setupTook = append(setupTook, warm.latency())
	}
	defer d.stop()

	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	rss := startRSS(strconv.Itoa(d.cmd.Process.Pid))
	outs := make([]jobOutcome, len(sched))
	start := openLoop(realClock{}, sched, func(i int, due, sent time.Time) {
		outs[i] = d.runJob(sched[i], due, sent)
	})
	stopRef()
	stopSpin()
	rssMB, rssErr := rss.finish()
	if rssErr != nil {
		rep.warn(fmt.Sprintf("rss_peak_mb includes set-up: %v", rssErr))
	}
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	d.stop()

	recs := make([]estRecord, len(outs))
	var last time.Time
	done := 0
	for i, o := range outs {
		recs[i] = estRecord{err: o.err}
		if o.err != nil {
			continue
		}
		done++
		r := o.result
		res := maxpower.Result{
			Estimate: r.Estimate, CILow: r.CILow, CIHigh: r.CIHigh, RelErr: r.RelErr,
			HyperSamples: r.HyperSamples, Units: r.Units, Converged: r.Converged, ObservedMax: r.ObservedMax,
		}
		recs[i].latency = o.latency()
		recs[i].res = summarize(res)
		if o.status.Finished.After(last) {
			last = *o.status.Finished
		}
		rep.checkResult(fmt.Sprintf("job %d", i), res, nil)
	}
	rep.Attempted, rep.Failed = len(recs), countFailed(recs)
	rep.setDigest(recs)
	if rep.Failed > 0 {
		for _, r := range recs {
			if r.err != nil {
				rep.warn(fmt.Sprintf("first failed job: %v", r.err))
				break
			}
		}
	}

	slow := ref.slowdown()
	rep.add("machine_slowdown", "ratio", slow)
	if opt.trace == 0 {
		var setupS []float64
		for j, t0 := range setupStart {
			setupS = append(setupS, setupTook[j].Seconds()/ref.over(t0, t0.Add(setupTook[j])))
		}
		rep.add("setup_s", "s", median(setupS))
		// The load is open, so throughput is the offered rate unless the
		// daemon falls behind; it is not a speed to correct. Each job is
		// brought to reference speed by the daemon CPU's speed around it.
		lat := make([]float64, len(recs))
		for i, r := range recs {
			if o := outs[i]; o.err == nil {
				lat[i] = ms(r.latency) / ref.over(o.due, *o.status.Finished)
			}
		}
		addLatencyMetrics(rep, recs, lat, float64(done)/last.Sub(start).Seconds())
		rep.add("rss_peak_mb", "MiB", rssMB)
	}
	addServiceDetail(rep, outs, before, after)

	// Untimed: every done job must bit-match the library's estimate.
	pop, _, err := buildPop(serviceCircuit, servicePopSize, servicePopSeed)
	if err != nil {
		return nil, err
	}
	local := make([]estRecord, len(sched))
	for i, a := range sched {
		if recs[i].failed() {
			continue
		}
		res, err := pop.run(a.Seed)
		local[i] = estRecord{res: summarize(res), err: err}
		rep.checkResult(fmt.Sprintf("job %d in process", i), res, err)
		rep.sameResult(fmt.Sprintf("job %d in process", i), recs[i], local[i])
	}

	if opt.trace == 1 {
		// The library layers of the jobs come from the same estimates made
		// in process: the daemon itself is not traced.
		var jobs []tracedJob
		for i, a := range sched {
			if !recs[i].failed() {
				jobs = append(jobs, tracedJob{id: i, est: pop, seed: a.Seed, want: local[i]})
			}
		}
		tc := newTraceCtx()
		if err := pop.rebuildTraced(tc); err != nil {
			rep.fail(err.Error())
		}
		if len(jobs) > 0 {
			jobs = jobs[:tracedCount(len(jobs))]
		}
		if err := tracedPass(opt, rep, tc, jobs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// addServiceDetail adds the service's own layer numbers, taken from the
// HTTP timestamps of each job and the /v1/stats deltas across the timed
// phase.
func addServiceDetail(rep *runReport, outs []jobOutcome, before, after service.Stats) {
	var submit, queue, run, lag []float64
	polls, done := 0, 0
	for _, o := range outs {
		lag = append(lag, ms(o.sent.Sub(o.due)))
		if o.accepted.After(o.sent) {
			submit = append(submit, ms(o.accepted.Sub(o.sent)))
		}
		polls += o.polls
		if o.err != nil || o.status.Started == nil || o.status.Finished == nil {
			continue
		}
		done++
		queue = append(queue, ms(o.status.Started.Sub(o.status.Created)))
		run = append(run, ms(o.status.Finished.Sub(*o.status.Started)))
	}
	rep.addSamples("http.submit_ms_p50", "ms", median(submit), len(submit), len(submit) > 0)
	rep.addTail("http.submit_ms_p99", "ms", submit, 0.99)
	rep.addSamples("service.queue_wait_ms_p50", "ms", median(queue), len(queue), len(queue) > 0)
	rep.addTail("service.queue_wait_ms_p99", "ms", queue, 0.99)
	rep.addSamples("service.run_ms_p50", "ms", median(run), len(run), len(run) > 0)
	rep.addTail("service.run_ms_p99", "ms", run, 0.99)
	jobs := float64(done)
	rep.addMaybe("service.sim_ms_per_job", "ms", float64(after.SimNS-before.SimNS)/1e6/jobs, done > 0)
	rep.addMaybe("service.mle_ms_per_job", "ms", float64(after.MLENS-before.MLENS)/1e6/jobs, done > 0)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	rep.add("service.population_cache_hit_ratio", "share", ratio(float64(hits), float64(hits+misses)))
	lagMax := 0.0
	for _, v := range lag {
		lagMax = max(lagMax, v)
	}
	rep.add("client.lag_ms_max", "ms", lagMax)
	rep.add("client.polls_per_job", "count", ratio(float64(polls), float64(len(outs))))
}
