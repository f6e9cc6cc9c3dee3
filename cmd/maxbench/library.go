package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/stats"
	"repro/internal/vectorgen"
	"repro/maxpower"
)

// estimator is one kind of estimate a workload makes: it runs through the
// public maxpower facade, or through the benchmark's traced composition
// of the same layers, which gives bit-identical results.
type estimator interface {
	run(seed uint64) (maxpower.Result, error)
	traced(seed uint64, tc *traceCtx) (maxpower.Result, error)
	// truth is the population maximum, 0 when there is no ground truth.
	truth() float64
	ref() kernelRef
}

// streamEst is maxpower.EstimateStreaming with the high-activity
// generator, the paper's estimator defaults and Workers: 1, sharing one
// kernel cache across calls.
type streamEst struct {
	kref    kernelRef
	kernels *maxpower.KernelCache
}

func newStreamEst(circuit, model string) (*streamEst, error) {
	c, err := maxpower.Circuit(circuit)
	if err != nil {
		return nil, err
	}
	m, err := delay.ByName(model)
	if err != nil {
		return nil, err
	}
	return &streamEst{kref: kernelRef{c, m}, kernels: maxpower.NewKernelCache(4)}, nil
}

func (s *streamEst) run(seed uint64) (maxpower.Result, error) {
	spec := maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, DelayModel: s.kref.model.Name()}
	return maxpower.EstimateStreaming(s.kref.circuit, spec, maxpower.EstimateOptions{Seed: seed, Workers: 1, Kernels: s.kernels})
}

func (s *streamEst) traced(seed uint64, tc *traceCtx) (maxpower.Result, error) {
	tr := tc.tr
	root := tr.begin("estimate")
	setup := tr.begin("maxpower.setup")
	src := &tracedStream{tc: tc, key: s.kref.key(), ev: tc.evaluator(s.kref, 2), gen: s.generator()}
	tr.end(setup)
	res, err := runTraced(tc, src, seed)
	tr.end(root)
	tc.spec.Add(src.ev.SpecStats())
	tc.replay()
	if err == nil {
		err = src.err
	}
	return res, err
}

// generator is the facade's high-activity generator at its default
// activity floor.
func (s *streamEst) generator() vectorgen.Generator {
	return vectorgen.HighActivity{N: s.kref.circuit.NumInputs(), MinActivity: 0.3}
}

func (s *streamEst) truth() float64 { return 0 }
func (s *streamEst) ref() kernelRef { return s.kref }

// popEst is maxpower.Estimate against one prebuilt population.
type popEst struct {
	kref kernelRef
	spec maxpower.PopulationSpec
	pop  *maxpower.Population
}

// buildPop builds a high-activity population with fanout delays and
// Workers: 1, and returns it with the build's wall time.
func buildPop(circuit string, size int, seed uint64) (*popEst, time.Duration, error) {
	c, err := maxpower.Circuit(circuit)
	if err != nil {
		return nil, 0, err
	}
	spec := maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, Size: size, Seed: seed, DelayModel: "fanout", Workers: 1}
	t0 := time.Now()
	pop, err := maxpower.BuildPopulation(c, spec)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	return &popEst{kref: kernelRef{c, delay.FanoutLoaded{}}, spec: spec, pop: pop}, took, nil
}

func (p *popEst) run(seed uint64) (maxpower.Result, error) {
	return maxpower.Estimate(p.pop, maxpower.EstimateOptions{Seed: seed})
}

func (p *popEst) traced(seed uint64, tc *traceCtx) (maxpower.Result, error) {
	tr := tc.tr
	root := tr.begin("estimate")
	setup := tr.begin("maxpower.setup")
	err := maxpower.EstimateOptions{Seed: seed}.Validate()
	tr.end(setup)
	var res maxpower.Result
	if err == nil {
		res, err = runTraced(tc, tracedPop{tc: tc, pop: p.pop}, seed)
	}
	tr.end(root)
	return res, err
}

func (p *popEst) truth() float64 { return p.pop.TrueMax() }
func (p *popEst) ref() kernelRef { return p.kref }

// rebuildTraced redoes the population build under tracing and checks
// that it reproduces the real build bit for bit.
func (p *popEst) rebuildTraced(tc *traceCtx) error {
	gen := vectorgen.HighActivity{N: p.kref.circuit.NumInputs(), MinActivity: 0.3}
	powers, err := tc.tracedBuild(p.kref, gen, p.spec.Size, p.spec.Seed)
	if err != nil {
		return err
	}
	for i, v := range powers {
		if math.Float64bits(v) != math.Float64bits(p.pop.Power(i)) {
			return fmt.Errorf("traced build of %s differs from BuildPopulation at pair %d", p.pop.Name(), i)
		}
	}
	return nil
}

// runTraced is the evt half of a traced estimate: evt.New and Run with
// the paper's defaults, the configuration the facade passes for zero
// options.
func runTraced(tc *traceCtx, src evt.Source, seed uint64) (maxpower.Result, error) {
	id := tc.tr.begin("evt.run")
	defer tc.tr.end(id)
	est, err := evt.New(src, evt.Config{})
	if err != nil {
		return maxpower.Result{}, err
	}
	return est.Run(stats.NewRNG(seed)), nil
}

// libWorkload is a library workload after set-up: estimate i is
// pick(i)'s estimator run with pick(i)'s seed.
type libWorkload struct {
	ests []estimator
	pick func(i int) (estimator, uint64)
	// pops are rebuilt under tracing in the traced pass.
	pops []*popEst
	// buildS is the wall time of each population build in set-up.
	buildS []float64
}

// libDef defines a library workload.
type libDef struct {
	name string
	// setups is how many times a run repeats set-up for setup_s.
	setups int
	setup  func(seed uint64) (*libWorkload, error)
}

// warmSeed drives the warm-up estimate of set-up. It is fixed, not
// derived from -seed, so set-up does the same work on every seed.
const warmSeed = 0x5eed

func streamDef(name, circuit, model string) libDef {
	return libDef{name: name, setups: 15, setup: func(seed uint64) (*libWorkload, error) {
		s, err := newStreamEst(circuit, model)
		if err != nil {
			return nil, err
		}
		// The warm-up compiles the kernel into the shared cache and grows
		// the heap, so the timed phase starts in steady state.
		if _, err := s.run(warmSeed); err != nil {
			return nil, err
		}
		return &libWorkload{
			ests: []estimator{s},
			pick: func(i int) (estimator, uint64) { return s, seedAt(seed, name, i) },
		}, nil
	}}
}

// The paper-tables populations are fixed inputs of the workload, like
// its circuits: their maxima set the accuracy scores, so a population
// drawn per -seed would move the scores by more than any code change.
var tablePops = []struct {
	circuit string
	seed    uint64
}{{"C880", 880}, {"C3540", 3540}}

func tablesDef(size int) libDef {
	return libDef{name: "paper-tables", setups: 3, setup: func(seed uint64) (*libWorkload, error) {
		w := &libWorkload{}
		for _, tp := range tablePops {
			p, took, err := buildPop(tp.circuit, size, tp.seed)
			if err != nil {
				return nil, err
			}
			w.pops = append(w.pops, p)
			w.ests = append(w.ests, p)
			w.buildS = append(w.buildS, took.Seconds())
		}
		// Estimates alternate between the circuits, so a run of any
		// length splits its time between them evenly.
		w.pick = func(i int) (estimator, uint64) {
			return w.ests[i%len(w.ests)], seedAt(seed, "paper-tables", i)
		}
		return w, nil
	}}
}

// estRecord is what a run keeps of one estimate once checkResult has
// seen the whole result: little, so that the tens of thousands of them a
// run keeps do not show in the peak memory it measures.
type estRecord struct {
	latency time.Duration
	res     summary
	err     error
	truth   float64
}

// summary is the part of a maxpower.Result the metrics use.
type summary struct {
	Estimate, RelErr, ObservedMax float64
	Units                         int
	Converged                     bool
}

func summarize(r maxpower.Result) summary {
	return summary{Estimate: r.Estimate, RelErr: r.RelErr, ObservedMax: r.ObservedMax, Units: r.Units, Converged: r.Converged}
}

// runLibrary runs one library workload: set-up (repeated for setup_s
// when untraced), the timed phase, the correctness checks, and with
// -trace 1 the traced replay of the first quarter of the estimates.
func runLibrary(opt options, def libDef) (*runReport, error) {
	rep := newReport(opt)
	setups := def.setups
	if opt.trace == 1 {
		setups = 1
	} else if opt.smoke {
		setups = 2
	}
	// The process runs on one CPU and the workload on one thread of it,
	// with the speed reference timed in that thread's CPU time: the
	// reference then measures the CPU the work ran on, collector included,
	// and the collector's turns on it do not read as a slower machine.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pinned := false
	if cpus, err := allowedCPUs(); err != nil || len(cpus) == 0 {
		rep.warn(fmt.Sprintf("runs unpinned, speed reference in wall time (allowed CPUs %v, %v)", cpus, err))
	} else if err := pinSelf(cpus[0]); err != nil {
		rep.warn(fmt.Sprintf("runs unpinned, speed reference in wall time: %v", err))
	} else {
		pinned = true
	}

	var (
		w      *libWorkload
		setupS []float64
		buildS []float64
	)
	setupRef := newSpeedRef()
	setupRef.threadTime = pinned
	for j := 0; j < setups; j++ {
		s, err := setupRef.timeSetup(func() (time.Duration, error) {
			t0 := time.Now()
			var err error
			w, err = def.setup(opt.seed)
			return time.Since(t0), err
		})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setupS = append(setupS, s)
		buildS = append(buildS, w.buildS...)
		runtime.GC()
	}
	// rss_peak_mb is the timed phase's: the pages set-up's transient
	// builds freed stay resident until the runtime returns them.
	debug.FreeOSMemory()
	rss := startRSS("self")

	ref := newSpeedRef()
	ref.threadTime = pinned
	var refAt []int // refAt[i] is the reference computation just before estimate i
	recs := timedLoop(opt, func(i int) estRecord {
		refAt = append(refAt, ref.tick())
		est, seed := w.pick(i)
		t0 := time.Now()
		res, err := est.run(seed)
		took := time.Since(t0)
		rep.checkResult(fmt.Sprintf("estimate %d", i), res, err)
		return estRecord{latency: took, res: summarize(res), err: err, truth: est.truth()}
	})
	ref.run() // the one after the last estimates
	rssMB, rssErr := rss.finish()
	if rssErr != nil {
		rep.warn(fmt.Sprintf("rss_peak_mb includes set-up: %v", rssErr))
	}
	rep.Attempted, rep.Failed = len(recs), countFailed(recs)
	rep.setDigest(recs)

	slow := ref.slowdown()
	rep.add("machine_slowdown", "ratio", slow)
	if opt.trace == 0 {
		rep.add("setup_s", "s", median(setupS))
		// Each estimate is brought to reference speed by the reference
		// computations either side of it: the machine changes state many
		// times in a run, and an estimate made in a slow spell would
		// otherwise join the tail. Throughput counts the time spent in
		// estimates, not the reference computations between them.
		lat := make([]float64, len(recs))
		var total float64
		for i, r := range recs {
			lat[i] = ms(r.latency) / ref.between(refAt[i])
			total += lat[i]
		}
		addLatencyMetrics(rep, recs, lat, float64(len(recs))/(total/1e3))
		rep.add("rss_peak_mb", "MiB", rssMB)
	} else {
		if len(buildS) > 0 {
			rep.add("vectorgen.build_s", "s", median(buildS))
		}
		tc := newTraceCtx()
		for _, p := range w.pops {
			if err := p.rebuildTraced(tc); err != nil {
				rep.fail(err.Error())
			}
		}
		for _, e := range w.ests {
			tc.compile(e.ref())
		}
		jobs := make([]tracedJob, tracedCount(len(recs)))
		for i := range jobs {
			est, seed := w.pick(i)
			jobs[i] = tracedJob{id: i, est: est, seed: seed, want: recs[i]}
		}
		if err := tracedPass(opt, rep, tc, jobs); err != nil {
			return nil, err
		}
	}
	if def.name == "paper-tables" {
		addAccuracy(rep, recs)
	}
	return rep, nil
}

// timedLoop makes estimates 0, 1, 2, … one after another until the run's
// seconds are up (the last one started in time finishes), or makes
// exactly smokeEstimates of them under -smoke.
func timedLoop(opt options, one func(i int) estRecord) []estRecord {
	var recs []estRecord
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for i := 0; ; i++ {
		if opt.smoke {
			if i == smokeEstimates {
				break
			}
		} else if i > 0 && !time.Now().Before(deadline) {
			break
		}
		recs = append(recs, one(i))
	}
	return recs
}

// smokeEstimates is the size of a library workload under -smoke.
const smokeEstimates = 5

// tracedCount is how many estimates the traced pass replays: the first
// quarter of the run, at least one.
func tracedCount(n int) int { return max(1, n/4) }

// tracedJob is one estimate of the traced pass: its index in the run,
// how to make it, and what the timed phase got for it.
type tracedJob struct {
	id   int
	est  estimator
	seed uint64
	want estRecord
}

// tracedPass makes each job twice in a row, untraced and then traced,
// and adds the per-layer metrics. Running each pair back to back keeps
// drift in the machine's speed out of the overhead comparison. Both
// runs must reproduce the timed phase's estimate bit for bit.
func tracedPass(opt options, rep *runReport, tc *traceCtx, jobs []tracedJob) error {
	untraced := make([]estRecord, len(jobs))
	traced := make([]estRecord, len(jobs))
	wants := make([]estRecord, len(jobs))
	for k, j := range jobs {
		t0 := time.Now()
		res, err := j.est.run(j.seed)
		untraced[k] = estRecord{latency: time.Since(t0), res: summarize(res), err: err}
		tc.tr.trace = j.id
		res, err = j.est.traced(j.seed, tc)
		traced[k] = estRecord{res: summarize(res), err: err}
		tc.hyper.add(res)
		wants[k] = j.want
		rep.checkResult(fmt.Sprintf("traced estimate %d", j.id), res, err)
		rep.sameResult(fmt.Sprintf("untraced re-run of estimate %d", j.id), j.want, untraced[k])
		rep.sameResult(fmt.Sprintf("traced estimate %d", j.id), j.want, traced[k])
	}
	rep.Attempted += 2 * len(jobs)
	rep.Failed += countFailed(untraced) + countFailed(traced)
	if d, u := digest(traced), digest(wants); d != u {
		rep.fail(fmt.Sprintf("traced digest %s != untraced digest %s over %d estimates", d, u, len(jobs)))
	}
	addLayerMetrics(rep, tc, untraced, traced)
	return rep.saveSpans(opt, tc.tr.spans)
}

func elapsed(recs []estRecord) time.Duration {
	var d time.Duration
	for _, r := range recs {
		d += r.latency
	}
	return d
}

// failed reports a failure: an error, or a run that did not converge.
func (r estRecord) failed() bool { return r.err != nil || !r.res.Converged }

func countFailed(recs []estRecord) int {
	n := 0
	for _, r := range recs {
		if r.failed() {
			n++
		}
	}
	return n
}

// addLatencyMetrics adds the end-to-end metrics every library workload
// and the service share, from per-estimate records and their latencies
// in ms at reference speed (see speedRef). A failed estimate misses any
// latency limit: its latency becomes +Inf.
func addLatencyMetrics(rep *runReport, recs []estRecord, lat []float64, throughput float64) {
	var units, relErr []float64
	for i, r := range recs {
		if r.failed() {
			lat[i] = math.Inf(1)
		} else {
			units = append(units, float64(r.res.Units))
			relErr = append(relErr, 100*r.res.RelErr)
		}
	}
	rep.add("throughput_per_s", "1/s", throughput)
	rep.addSamples("latency_ms_p50", "ms", median(lat), len(lat), len(lat) > 0)
	rep.addTail("latency_ms_p95", "ms", lat, 0.95)
	rep.addTail("latency_ms_p99", "ms", lat, 0.99)
	rep.add("units_per_estimate", "pairs", mean(units))
	rep.add("ci_halfwidth_pct", "%", mean(relErr))
	below, ok := belowObservedShare(recs)
	rep.addMaybe("below_observed_max_share", "share", below, ok)
}

// addAccuracy scores estimates against their population maxima, the
// protocol of the paper's Table 2: the largest relative error and the
// share of estimates off by more than ε = 5%.
func addAccuracy(rep *runReport, recs []estRecord) {
	var worst, sum float64
	miss, n := 0, 0
	for _, r := range recs {
		if r.failed() || r.truth == 0 {
			continue
		}
		e := math.Abs(evt.RelativeError(r.res.Estimate, r.truth))
		worst = max(worst, e)
		sum += e
		if e > 0.05 {
			miss++
		}
		n++
	}
	ok := n > 0
	rep.addMaybe("max_rel_err_pct", "%", 100*worst, ok)
	rep.addMaybe("mean_abs_err_pct", "%", 100*sum/float64(max(n, 1)), ok)
	rep.addMaybe("miss_rate", "share", float64(miss)/float64(max(n, 1)), ok)
}

// addLayerMetrics turns the traced pass into the per-layer metrics.
// untraced are the same estimates from the timed phase.
func addLayerMetrics(rep *runReport, tc *traceCtx, untraced, traced []estRecord) {
	agg := aggregate(tc.tr.spans)
	spec, h := tc.spec, tc.hyper
	fitNS := float64(h.fitNS)
	var kernelNS, replayed, kernelEquiv, free, live, compileNS float64
	for _, ps := range tc.progs {
		kernelNS += float64(ps.replayNS)
		replayed += float64(ps.replayed)
		if ps.replayed > 0 {
			kernelEquiv += float64(ps.replayNS) / float64(ps.replayed) * float64(ps.stripes)
		}
		f, t := ps.prog.HazardFree()
		free += float64(f)
		live += float64(t)
		compileNS += float64(ps.compileNS)
	}
	n := float64(len(traced))
	batchNS := float64(agg["power.batch"].total)

	rep.add("vectorgen.gen_pack_ns_per_unit", "ns", ratio(float64(agg["vectorgen.gen_pack"].total), float64(tc.genUnits)))
	rep.add("power.batch_ns_per_unit", "ns", ratio(batchNS, float64(tc.batchUnits)))
	rep.add("sim.kernel_ns_per_stripe", "ns", ratio(kernelNS, replayed))
	rep.add("power.fold_ns_per_unit", "ns", ratio(batchNS-kernelEquiv, float64(tc.batchUnits)))
	rep.add("sim.spec_patched_words_per_stripe", "count", ratio(float64(spec.PatchedWords), float64(spec.Stripes)))
	rep.add("sim.spec_fallbacks_per_stripe", "count", ratio(float64(spec.Fallbacks), float64(spec.Stripes)))
	rep.add("sim.hazard_free_fraction", "share", ratio(free, live))
	rep.add("sim.compile_ms", "ms", ratio(compileNS/1e6, float64(len(tc.progs))))
	rep.add("vectorgen.sample_ns_per_unit", "ns", ratio(float64(agg["vectorgen.sample"].total), float64(tc.sampleUnits)))
	rep.add("weibull.fit_us_per_fit", "us", ratio(fitNS/1e3, float64(h.fits)))
	rep.add("weibull.fit_retries_per_hyper", "count", ratio(float64(h.retries), float64(h.hyper)))
	rep.add("evt.hyper_samples_per_estimate", "count", ratio(float64(h.hyper), n))
	rep.add("evt.fallback_max_fraction", "share", ratio(float64(h.fallbacks), float64(h.hyper)))
	rep.add("evt.self_us_per_estimate", "us", ratio((float64(agg["evt.run"].self)-fitNS)/1e3, n))
	rep.add("maxpower.setup_us_per_estimate", "us", ratio(float64(agg["maxpower.setup"].total)/1e3, n))

	// Tracing is valid when the traced estimates take about as long as
	// the same estimates untraced (overhead), and when the layers' self
	// times add up to the untraced time (unaccounted): the root span's
	// own glue and the trace.copy spans belong to no layer.
	u := float64(elapsed(untraced))
	t := float64(agg["estimate"].total)
	layers := t - float64(agg["estimate"].self) - float64(agg["trace.copy"].total)
	rep.add("trace.overhead_fraction", "share", ratio(t, u)-1)
	unacc := ratio(math.Abs(u-layers), u)
	rep.add("trace.unaccounted_fraction", "share", unacc)
	if unacc > 0.10 {
		rep.warn(fmt.Sprintf("trace.unaccounted_fraction %.3f > 0.10: the per-layer split does not reconcile with the untraced time", unacc))
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
