package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/maxpower"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order: a run with -trace 0 reports the first list in its last line, a
// run with -trace 1 the second. Every other metric a run adds is detail,
// printed and written to -json but not part of that line, because it
// exists on one workload only or is a percentile a run may be too short
// to give.
var (
	endToEnd = []string{
		"setup_s", "throughput_per_s", "latency_ms_p50", "latency_ms_p95",
		"units_per_estimate", "ci_halfwidth_pct", "rss_peak_mb",
	}
	perLayer = []string{
		"vectorgen.gen_pack_ns_per_unit", "power.batch_ns_per_unit",
		"sim.kernel_ns_per_stripe", "power.fold_ns_per_unit",
		"sim.spec_patched_words_per_stripe", "sim.hazard_free_fraction",
		"sim.compile_ms", "vectorgen.sample_ns_per_unit",
		"weibull.fit_us_per_fit", "weibull.fit_retries_per_hyper",
		"evt.hyper_samples_per_estimate", "evt.self_us_per_estimate",
		"maxpower.setup_us_per_estimate",
		"trace.overhead_fraction", "trace.unaccounted_fraction",
	}
)

// metric is one measured number. Absent marks a metric the run could not
// give (a tail percentile with too few samples beyond it).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Absent  bool    `json:"absent,omitempty"`
}

// runReport is everything one single-workload run measured and checked.
type runReport struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     int      `json:"trace"`
	Smoke     bool     `json:"smoke,omitempty"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Digest is an FNV-64a hash of the bits of the first DigestOf
	// estimates, which two runs with the same seed must share.
	Digest   string   `json:"estimate_digest"`
	DigestOf int      `json:"estimate_digest_of"`
	Errors   []string `json:"errors,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	Machine  machine  `json:"machine"`
}

func newReport(opt options) *runReport {
	return &runReport{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Smoke: opt.smoke, Correct: true, Machine: machineInfo(),
	}
}

func (r *runReport) add(name, unit string, v float64) { r.addMaybe(name, unit, v, true) }

func (r *runReport) addMaybe(name, unit string, v float64, ok bool) {
	r.addSamples(name, unit, v, 0, ok)
}

func (r *runReport) addSamples(name, unit string, v float64, n int, ok bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ok = false
	}
	if !ok {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: n, Absent: !ok})
}

// addTail adds the p-quantile of samples, absent unless at least
// tailBeyond samples lie beyond it.
func (r *runReport) addTail(name, unit string, samples []float64, p float64) {
	v, ok := tail(samples, p)
	r.addSamples(name, unit, v, len(samples), ok)
}

func (r *runReport) fail(msg string) {
	r.Correct = false
	// One workload can fail thousands of estimates the same way; keep the
	// first few messages and the count.
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, msg)
	}
}

func (r *runReport) warn(msg string) { r.Warnings = append(r.Warnings, msg) }

// checkResult applies the correctness checks every estimate must pass:
// a finite estimate inside its finite confidence interval, and every
// hyper-sample estimate at or above the largest unit power that
// hyper-sample drew. The final estimate is the mean of the hyper-sample
// estimates, so it can legitimately fall below the run's overall
// observed maximum; belowObservedShare reports how often it does.
func (r *runReport) checkResult(what string, res maxpower.Result, err error) {
	if err != nil {
		return // a failure, counted as such; there is no result to check
	}
	for _, v := range []float64{res.Estimate, res.CILow, res.CIHigh, res.ObservedMax} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Sprintf("%s: non-finite result: estimate %v, interval [%v, %v], observed maximum %v", what, res.Estimate, res.CILow, res.CIHigh, res.ObservedMax))
			return
		}
	}
	if res.CILow > res.Estimate || res.Estimate > res.CIHigh {
		r.fail(fmt.Sprintf("%s: estimate %v outside its interval [%v, %v]", what, res.Estimate, res.CILow, res.CIHigh))
	}
	for k, hs := range res.Trace {
		if hs.Estimate < hs.ObservedMax {
			r.fail(fmt.Sprintf("%s: hyper-sample %d estimate %v below its observed maximum %v", what, k, hs.Estimate, hs.ObservedMax))
		}
	}
}

// belowObservedShare is the share of successful estimates below the
// largest unit power their run observed.
func belowObservedShare(recs []estRecord) (float64, bool) {
	below, n := 0, 0
	for _, rec := range recs {
		if rec.failed() {
			continue
		}
		n++
		if rec.res.Estimate < rec.res.ObservedMax {
			below++
		}
	}
	return ratio(float64(below), float64(n)), n > 0
}

// digestOf is how many leading estimates the digest covers: enough to
// pin the results, few enough that every normal run completes them.
const digestOf = 100

func (r *runReport) setDigest(recs []estRecord) {
	n := min(len(recs), digestOf)
	r.Digest = digest(recs[:n])
	r.DigestOf = n
}

func digest(recs []estRecord) string {
	h := fnv.New64a()
	var b [8]byte
	for _, rec := range recs {
		bits := math.Float64bits(rec.res.Estimate)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameResult checks that got reproduced want bit for bit: running an
// estimate again, traced or not, may cost time but never change it.
func (r *runReport) sameResult(what string, want, got estRecord) {
	a, b := want.res, got.res
	if got.err != nil || math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) || a.Units != b.Units {
		r.fail(fmt.Sprintf("%s: %v (%d units, error %v), first run %v (%d units)", what, b.Estimate, b.Units, got.err, a.Estimate, a.Units))
	}
}

func (r *runReport) saveSpans(opt options, spans []span) error {
	if opt.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.spansDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl", r.Workload, r.Seed)), spans)
}

// print writes one line per metric, "workload metric value unit", with
// the sample count of percentiles, then the digest, warnings and errors.
func (r *runReport) print(w io.Writer) {
	for _, m := range r.Metrics {
		v := "absent"
		if !m.Absent {
			v = strconv.FormatFloat(m.Value, 'g', 6, 64)
		}
		line := fmt.Sprintf("%s %s %s %s", r.Workload, m.Name, v, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s estimate_digest %s hex n=%d\n", r.Workload, r.Digest, r.DigestOf)
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, s := range r.Warnings {
		fmt.Fprintf(os.Stderr, "maxbench: %s: warning: %s\n", r.Workload, s)
	}
	for _, s := range r.Errors {
		fmt.Fprintf(os.Stderr, "maxbench: %s: check failed: %s\n", r.Workload, s)
	}
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) contract() contractLine {
	names := endToEnd
	if r.Trace == 1 {
		names = perLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, name := range names {
		for _, m := range r.Metrics {
			if m.Name == name && !m.Absent {
				line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	return line
}

func (r *runReport) writeJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// machine identifies where a run was measured.
type machine struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

func machineInfo() machine {
	m := machine{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// rssWindow is the length of the windows whose peaks rss_peak_mb takes
// the median of.
const rssWindow = time.Second

// rssSampler reads the peak resident set size of a process once per
// rssWindow and restarts it. The Go collector lets the heap grow to twice
// its live size before it runs, and how far it overshoots depends on
// when the collection starts, so a single peak over a whole run moves by
// a fifth between runs of the same code. The median of the window peaks
// is the level the process keeps returning to.
type rssSampler struct {
	pid   string
	err   error // from restarting the peak: the windows then see the process's whole life
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// startRSS starts sampling process pid ("self" for this one).
func startRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, err: resetHWM(pid), stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(rssWindow)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			// A run shorter than one window still gets its peak.
			if len(s.peaks) == 0 {
				s.peaks = append(s.peaks, vmHWM(s.pid))
			}
			return
		case <-t.C:
			s.peaks = append(s.peaks, vmHWM(s.pid))
			resetHWM(s.pid) // fails only if the first reset did, which err reports
		}
	}
}

// finish stops the sampler and returns the median window peak in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.peaks), s.err
}

// resetHWM restarts the peak resident set size of process pid ("self"
// for this one), so a later vmHWM covers only what follows.
func resetHWM(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// vmHWM returns the peak resident set size of process pid ("self" for
// this one) in MiB, from /proc; NaN where /proc has no such field.
func vmHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
