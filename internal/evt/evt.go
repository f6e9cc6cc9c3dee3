// Package evt implements the paper's contribution: maximum power
// estimation from the limiting distribution of extreme order statistics.
//
// The pipeline (paper §III, Figures 3–4):
//
//  1. Draw m random samples of n units each; keep each sample's maximum
//     power p_{i,MAX}. For n ≥ 30 those maxima follow the generalized
//     reverse-Weibull law G(x; α, β, μ) whose location μ IS the population
//     maximum ω(F).
//  2. Fit (α, β, μ) by maximum likelihood (internal/weibull). One such fit
//     is a hyper-sample estimate P̂_{i,MAX}. For a finite population the
//     raw μ̂ over-shoots, so the (1 − 1/|V|) quantile of the fitted law is
//     used instead (§3.4, the "finite population estimator").
//  3. Iterate hyper-samples k = 1, 2, …; after each, form the Student-t
//     confidence interval (Eqn. 3.8). Stop when the relative half-width is
//     within ε at confidence level l.
package evt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/weibull"
)

// Source is a population of power values that can be sampled with
// replacement. *vectorgen.Population satisfies it; analytic distributions
// can be adapted for tests.
type Source interface {
	// SamplePower draws the power of one random unit.
	SamplePower(rng *stats.RNG) float64
	// Size returns |V|, or 0 for an infinite population.
	Size() int
}

// BatchSource is an optional upgrade of Source for bulk sampling: the
// estimator requests all m·n unit powers of a hyper-sample as one
// SampleBatch call instead of m·n scalar draws, letting the source
// amortize per-unit cost (compiled stripe simulation, worker pools).
//
// Determinism contract: SampleBatch must consume the RNG exactly as
// len(dst) sequential SamplePower calls would — i.e. any randomness is
// spent generating the batch's units in order, and only the (RNG-free)
// simulation of those units may run out of order or in parallel. Under
// that contract, batched and scalar estimation produce bit-identical
// Results for any seed and any worker count; the tests enforce it.
//
// Allocation contract: the estimator reuses one scratch buffer for all
// batches, so an implementation that likewise reuses its internal state
// (vectorgen.StreamSource keeps the batch as packed bit planes end to
// end) makes the steady-state sampling loop allocation-free — no []bool
// or other per-unit value is ever materialized between the RNG and the
// fitted maxima.
type BatchSource interface {
	Source
	// SampleBatch fills dst with len(dst) unit powers.
	SampleBatch(rng *stats.RNG, dst []float64)
}

// InfiniteSource adapts a draw function as an infinite population.
type InfiniteSource func(rng *stats.RNG) float64

// SamplePower implements Source.
func (f InfiniteSource) SamplePower(rng *stats.RNG) float64 { return f(rng) }

// Size implements Source.
func (InfiniteSource) Size() int { return 0 }

// Progress is a point-in-time snapshot of a running estimation,
// published after every completed hyper-sample. It carries the running
// state of Figure 4's loop: how many hyper-samples have been folded in,
// the current mean estimate, the Student-t interval, and the simulation
// cost so far. After the first hyper-sample (k = 1) no deviation exists
// yet, so CILow/CIHigh are unbounded and RelErr is +Inf.
type Progress struct {
	// HyperSamples is k, the number of completed hyper-samples.
	HyperSamples int
	// Estimate is the running P̄_MAX (mean of hyper-sample estimates).
	Estimate float64
	// CILow/CIHigh bound the maximum at the configured confidence.
	CILow, CIHigh float64
	// RelErr is the current CI half-width over the estimate.
	RelErr float64
	// Units is the total simulated units so far.
	Units int
	// Converged reports whether the stopping rule has been satisfied.
	Converged bool
}

// EngineStats carries the simulation backend's execution-strategy
// counters for one estimation run. The speculative settle-then-patch
// kernel reports how many timed stripes it attempted, how many
// gate-words it patched from hazard analysis, and how many stripes fell
// back to the full event wheel after a misprediction. All strategies
// are bit-identical, so these numbers never explain a result — they
// explain its cost, and services surface them for capacity planning and
// regression triage.
type EngineStats struct {
	// SpecStripes counts timed stripes the speculative executor ran.
	SpecStripes uint64 `json:"spec_stripes,omitempty"`
	// SpecPatched counts gate-words patched via hazard analysis or
	// waveform merge (the work the wheel never had to schedule).
	SpecPatched uint64 `json:"spec_patched_words,omitempty"`
	// SpecFallbacks counts stripes replayed on the event wheel after a
	// waveform/settle disagreement.
	SpecFallbacks uint64 `json:"spec_fallbacks,omitempty"`
}

// Add returns the element-wise sum of two counter sets.
func (s EngineStats) Add(o EngineStats) EngineStats {
	s.SpecStripes += o.SpecStripes
	s.SpecPatched += o.SpecPatched
	s.SpecFallbacks += o.SpecFallbacks
	return s
}

// Sub returns the element-wise difference s − o (counters are
// monotonic, so this is the delta between two snapshots).
func (s EngineStats) Sub(o EngineStats) EngineStats {
	s.SpecStripes -= o.SpecStripes
	s.SpecPatched -= o.SpecPatched
	s.SpecFallbacks -= o.SpecFallbacks
	return s
}

// EngineStatsSource is an optional upgrade of Source for backends that
// expose cumulative execution-strategy counters. The estimator
// snapshots the counters around each run and reports the delta in
// Result.Engine, so one long-lived source serving several runs
// attributes counts to the right run. Sources without the upgrade — and
// runs folded from shard records — leave Result.Engine zero.
//
// The method returns bare counters rather than an EngineStats so that
// source packages (which this package's tests import) never need to
// import evt back.
type EngineStatsSource interface {
	Source
	SpecCounters() (stripes, patched, fallbacks uint64)
}

// Observer receives Progress snapshots from a running estimation. It is
// the estimator's observation seam: callers (a progress bar, a serving
// daemon, a metrics exporter) subscribe without perturbing the sampling
// stream — the observer is invoked synchronously between hyper-samples
// and consumes no randomness, so a run with an observer produces
// bit-identical results to one without.
type Observer interface {
	HyperSampleDone(Progress)
}

// ObserverFunc adapts a plain function as an Observer.
type ObserverFunc func(Progress)

// HyperSampleDone implements Observer.
func (f ObserverFunc) HyperSampleDone(p Progress) { f(p) }

// Checkpoint is the resumable state of a run, captured after a completed
// hyper-sample. The iterative procedure's entire memory between
// hyper-samples is the list of per-hyper-sample estimates (the Student-t
// stopping rule needs nothing else), the cumulative cost counters, and
// the RNG state — so a run restored from a Checkpoint and continued with
// the same Config and Source produces a Result whose statistical fields
// (Estimate, CI, RelErr, HyperSamples, Units, Converged, SigmaSq*,
// ObservedMax) are bit-identical to the uninterrupted run's. Only
// Result.Trace (post-resume hyper-samples only) and the wall-clock
// timings differ.
//
// The struct is JSON-serializable without precision loss: Go's float64
// encoding round-trips exactly for finite values, and every field is
// finite after at least one hyper-sample.
type Checkpoint struct {
	// Estimates are the per-hyper-sample estimates so far, in order.
	Estimates []float64 `json:"estimates"`
	// Units is the cumulative simulated-unit count (including retries).
	Units int `json:"units"`
	// ObservedMax is the largest unit power seen so far.
	ObservedMax float64 `json:"observed_max"`
	// RNG is the sampling generator's state after the last hyper-sample.
	RNG [4]uint64 `json:"rng"`
	// SimNS/FitNS carry the cumulative wall-time split (nanoseconds) so a
	// resumed Result accounts for the whole job. Not deterministic.
	SimNS int64 `json:"sim_ns,omitempty"`
	FitNS int64 `json:"fit_ns,omitempty"`
}

// Validate rejects checkpoints that cannot have been produced by a run:
// resuming from one would silently corrupt the estimate.
func (cp *Checkpoint) Validate() error {
	if len(cp.Estimates) == 0 {
		return errors.New("evt: checkpoint has no hyper-sample estimates")
	}
	for i, v := range cp.Estimates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("evt: checkpoint estimate %d is %v", i, v)
		}
	}
	if cp.Units < len(cp.Estimates) {
		return fmt.Errorf("evt: checkpoint units %d below hyper-sample count %d", cp.Units, len(cp.Estimates))
	}
	if math.IsNaN(cp.ObservedMax) || math.IsInf(cp.ObservedMax, 0) {
		return fmt.Errorf("evt: checkpoint observed max is %v", cp.ObservedMax)
	}
	if cp.RNG == ([4]uint64{}) {
		return errors.New("evt: checkpoint RNG state is all zero")
	}
	return nil
}

// Config parameterizes the estimator. The zero value is replaced by the
// paper's settings via Defaults.
type Config struct {
	// SampleSize is n, the units per sample whose maximum is kept.
	// Paper fixes 30 (Figure 1 shows convergence of the Weibull
	// approximation by n = 30).
	SampleSize int
	// SamplesPerHyper is m, the number of sample-maxima per MLE fit.
	// Paper fixes 10 (Figure 2 shows normality of μ̂ by m = 10).
	SamplesPerHyper int
	// Epsilon is the target relative error ε (CI half-width / estimate).
	Epsilon float64
	// Confidence is the level l of the Student-t interval.
	Confidence float64
	// MaxHyperSamples caps the iteration for pathological inputs.
	MaxHyperSamples int
	// MaxFitRetries re-draws a hyper-sample whose MLE fit fails
	// (no interior likelihood maximum). Each retry consumes units.
	MaxFitRetries int
	// AlphaMin is the shape constraint passed to the Weibull MLE;
	// 0 selects weibull.DefaultAlphaMin (= 2, the paper's condition).
	AlphaMin float64
	// DisableFiniteCorrection turns off the §3.4 finite-population
	// quantile correction even when the source is finite (for ablation).
	DisableFiniteCorrection bool
	// Observer, when non-nil, receives a Progress snapshot after every
	// hyper-sample. Invoked synchronously; a slow observer slows the run
	// but never changes its result.
	Observer Observer
	// Resume, when non-nil, continues an interrupted run from its last
	// checkpoint instead of starting fresh: the per-hyper-sample estimates
	// and cost counters are restored and RunContext's rng is overwritten
	// with the checkpointed state. The Config and Source must be the same
	// as the interrupted run's for the determinism guarantee to hold.
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, receives the run's resumable state after
	// every completed hyper-sample (after Observer). Invoked synchronously
	// and consumes no randomness, so checkpointed and unobserved runs are
	// bit-identical. The Checkpoint is a private copy the callback may
	// retain or serialize.
	OnCheckpoint func(Checkpoint)
}

// Defaults fills unset fields with the paper's values.
func (c Config) Defaults() Config {
	if c.SampleSize <= 0 {
		c.SampleSize = 30
	}
	if c.SamplesPerHyper <= 0 {
		c.SamplesPerHyper = 10
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.05
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.90
	}
	if c.MaxHyperSamples <= 0 {
		c.MaxHyperSamples = 200
	}
	if c.MaxFitRetries <= 0 {
		c.MaxFitRetries = 4
	}
	if c.AlphaMin == 0 {
		c.AlphaMin = weibull.DefaultAlphaMin
	}
	return c
}

// Validate rejects nonsensical configurations. The range checks are
// written so that NaN fails them.
func (c Config) Validate() error {
	c = c.Defaults()
	if c.SamplesPerHyper < 3 {
		return errors.New("evt: SamplesPerHyper must be at least 3 for a 3-parameter fit")
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("evt: Epsilon %v must be in (0,1)", c.Epsilon)
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return fmt.Errorf("evt: Confidence %v must be in (0,1)", c.Confidence)
	}
	// A negative AlphaMin is legal: it removes the shape constraint.
	if math.IsNaN(c.AlphaMin) || math.IsInf(c.AlphaMin, 1) {
		return fmt.Errorf("evt: AlphaMin %v must be a number below +Inf", c.AlphaMin)
	}
	if c.Resume != nil {
		if err := c.Resume.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// HyperSampleResult is one P̂_{i,MAX}: an MLE fit over m sample-maxima.
type HyperSampleResult struct {
	// Estimate is the hyper-sample's maximum-power estimate: μ̂ for an
	// infinite population, the (1−1/|V|) Weibull quantile for a finite one.
	Estimate float64
	// Fit is the underlying reverse-Weibull fit.
	Fit weibull.FitResult
	// Units is the number of units drawn, including failed-fit retries.
	Units int
	// Retries counts re-drawn hyper-samples due to fit failures.
	Retries int
	// FallbackMax is true when every retry failed and the estimate fell
	// back to the largest observed unit power.
	FallbackMax bool
	// ObservedMax is the largest unit power seen while drawing.
	ObservedMax float64
	// SimTime is the wall time spent drawing unit powers (the simulation
	// side of the run); FitTime is the wall time of the Weibull MLE fits
	// and estimate construction. Timing reads no randomness, so measured
	// and unmeasured runs are bit-identical.
	SimTime, FitTime time.Duration
}

// Result is the outcome of an estimation run.
type Result struct {
	// Estimate is P̄_MAX, the mean of the hyper-sample estimates (mW).
	Estimate float64
	// CILow/CIHigh bound the actual maximum at the configured confidence
	// (Eqn. 3.8).
	CILow, CIHigh float64
	// RelErr is the final CI half-width divided by the estimate.
	RelErr float64
	// HyperSamples is k, the number of iterations used.
	HyperSamples int
	// Units is the total number of simulated units ("# of units" in
	// Tables 1, 3, 4).
	Units int
	// Converged reports whether RelErr ≤ ε was reached within the cap.
	Converged bool
	// SigmaSq is s², the unbiased estimate of σ²_μ/m across hyper-samples
	// (Theorem 6), with its χ² confidence interval at the configured
	// level. Zero when fewer than two hyper-samples ran.
	SigmaSq               float64
	SigmaSqLow, SigmaSqHi float64
	// Trace holds each hyper-sample's result in order.
	Trace []HyperSampleResult
	// ObservedMax is the largest unit power encountered anywhere in the
	// run (the SRS-style lower bound that comes for free).
	ObservedMax float64
	// SimTime/FitTime split the run's wall time into its two cost centers:
	// drawing unit powers (simulation) and Weibull MLE fitting. Their sum
	// is less than the total wall time by the (cheap) interval bookkeeping.
	SimTime, FitTime time.Duration
	// Engine holds the backend's execution-strategy counters for this
	// run when the source implements EngineStatsSource (zero otherwise).
	// Purely observational: results are bit-identical across strategies.
	Engine EngineStats
}

// Estimator runs the paper's iterative procedure against a Source. When
// the source also implements BatchSource, each hyper-sample's m·n unit
// powers are drawn as one batch (same results, amortized cost).
type Estimator struct {
	cfg    Config
	src    Source
	batch  BatchSource    // non-nil when src supports bulk sampling
	buf    []float64      // scratch for one hyper-sample's m·n unit powers
	maxBuf []float64      // scratch for one hyper-sample's m sample-maxima
	fitter weibull.Fitter // owns the MLE scratch: refits allocate nothing
}

// New builds an estimator; cfg fields at zero take the paper's defaults.
func New(src Source, cfg Config) (*Estimator, error) {
	if src == nil {
		return nil, errors.New("evt: nil source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{cfg: cfg.Defaults(), src: src}
	e.batch, _ = src.(BatchSource)
	return e, nil
}

// Config returns the effective (defaulted) configuration.
func (e *Estimator) Config() Config { return e.cfg }

// HyperSample draws one hyper-sample: m samples of size n, one MLE fit.
// It retries with fresh draws when the fit fails, and falls back to the
// observed maximum if every retry fails. Sources implementing BatchSource
// are sampled one m·n batch per attempt; by the BatchSource contract the
// result is bit-identical to the scalar path.
func (e *Estimator) HyperSample(rng *stats.RNG) HyperSampleResult {
	cfg := e.cfg
	res := HyperSampleResult{ObservedMax: math.Inf(-1)}
	if cap(e.maxBuf) < cfg.SamplesPerHyper {
		e.maxBuf = make([]float64, cfg.SamplesPerHyper)
	}
	for attempt := 0; ; attempt++ {
		// Reused scratch: drawMaxima overwrites every entry and the fit
		// does not retain the slice, so the sampling loop allocates
		// nothing per attempt.
		maxima := e.maxBuf[:cfg.SamplesPerHyper]
		simStart := time.Now()
		e.drawMaxima(rng, maxima)
		res.SimTime += time.Since(simStart)
		res.Units += cfg.SamplesPerHyper * cfg.SampleSize
		for _, v := range maxima {
			if v > res.ObservedMax {
				res.ObservedMax = v
			}
		}
		fitStart := time.Now()
		fit, err := e.fitter.FitMLEShape(maxima, cfg.AlphaMin)
		if err == nil {
			// Plausibility guard: the right endpoint of the maxima's law
			// cannot credibly sit further above the largest observed
			// maximum than a few times the sample's own spread. Fits that
			// extrapolate beyond 3 ranges are almost always the
			// shape-boundary pathology (α clamped, tiny β, huge μ);
			// treat them as fit failures and re-draw.
			mn, mx := maxima[0], maxima[0]
			for _, v := range maxima {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if mx > mn && fit.Mu > mx+3*(mx-mn) {
				err = weibull.ErrNoInteriorMax
			}
		}
		if err == nil {
			res.Fit = fit
			res.Estimate = e.estimateFrom(fit)
			res.Retries = attempt
			// Robustness guard: a pathological fit (huge μ with a tiny β
			// at the shape boundary) can push the corrected quantile
			// below powers actually observed, or out of the finite
			// range entirely. The maximum of the population can never be
			// below an observed unit, so clamp there.
			if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < res.ObservedMax {
				res.Estimate = res.ObservedMax
			}
			res.FitTime += time.Since(fitStart)
			return res
		}
		res.FitTime += time.Since(fitStart)
		if attempt >= cfg.MaxFitRetries {
			res.Retries = attempt
			res.FallbackMax = true
			res.Estimate = res.ObservedMax
			return res
		}
	}
}

// drawMaxima fills maxima[i] with the largest of SampleSize unit powers,
// for each of the len(maxima) samples. Batch-capable sources supply all
// m·n units in one call; the maxima reduction is position-based, so the
// two paths see identical unit streams.
func (e *Estimator) drawMaxima(rng *stats.RNG, maxima []float64) {
	n := e.cfg.SampleSize
	if e.batch != nil {
		total := len(maxima) * n
		if cap(e.buf) < total {
			e.buf = make([]float64, total)
		}
		units := e.buf[:total]
		e.batch.SampleBatch(rng, units)
		for i := range maxima {
			sampleMax := math.Inf(-1)
			for _, p := range units[i*n : (i+1)*n] {
				if p > sampleMax {
					sampleMax = p
				}
			}
			maxima[i] = sampleMax
		}
		return
	}
	for i := range maxima {
		sampleMax := math.Inf(-1)
		for j := 0; j < n; j++ {
			if p := e.src.SamplePower(rng); p > sampleMax {
				sampleMax = p
			}
		}
		maxima[i] = sampleMax
	}
}

// estimateFrom converts a fit into the hyper-sample estimate, applying the
// finite-population correction when applicable.
func (e *Estimator) estimateFrom(fit weibull.FitResult) float64 {
	size := e.src.Size()
	if size <= 0 || e.cfg.DisableFiniteCorrection {
		return fit.Mu
	}
	return fit.UpperQuantile(1 / float64(size))
}

// Run executes the iterative procedure of Figure 4 until the confidence
// interval's relative half-width is within ε or MaxHyperSamples is hit.
// At least two hyper-samples are always drawn (the sample deviation needs
// k ≥ 2).
func (e *Estimator) Run(rng *stats.RNG) Result {
	return e.RunContext(context.Background(), rng)
}

// RunContext is Run with cancellation: when ctx is cancelled the procedure
// stops at the next hyper-sample boundary and returns the best result so
// far (Converged reports whether ε was actually reached). Useful when each
// unit is an expensive live simulation (StreamSource against a large
// design).
//
// When cfg.Resume is set, rng's state is overwritten with the
// checkpoint's and the loop continues at hyper-sample len(Estimates)+1;
// the statistical fields of the returned Result are bit-identical to
// those of the uninterrupted run (Trace covers only the resumed portion).
func (e *Estimator) RunContext(ctx context.Context, rng *stats.RNG) Result {
	// Snapshot the backend's strategy counters so Result.Engine reports
	// this run's delta even when the source outlives the estimator.
	es, hasES := e.src.(EngineStatsSource)
	var before EngineStats
	if hasES {
		before.SpecStripes, before.SpecPatched, before.SpecFallbacks = es.SpecCounters()
	}
	res := e.runContext(ctx, rng)
	if hasES {
		var after EngineStats
		after.SpecStripes, after.SpecPatched, after.SpecFallbacks = es.SpecCounters()
		res.Engine = after.Sub(before)
	}
	return res
}

func (e *Estimator) runContext(ctx context.Context, rng *stats.RNG) Result {
	cfg := e.cfg
	var (
		res       Result
		estimates []float64
	)
	res.ObservedMax = math.Inf(-1)
	if cp := cfg.Resume; cp != nil {
		estimates = append(estimates, cp.Estimates...)
		res.Units = cp.Units
		res.ObservedMax = cp.ObservedMax
		res.SimTime = time.Duration(cp.SimNS)
		res.FitTime = time.Duration(cp.FitNS)
		rng.SetState(cp.RNG)
		if len(estimates) >= 2 {
			// Recompute the interval the interrupted run last saw, so a
			// checkpoint taken at (or past) the stopping point — a crash
			// between the final checkpoint and the terminal record — resumes
			// straight to the identical converged Result without drawing.
			e.updateInterval(&res, estimates)
			if res.Converged {
				return res
			}
		}
	}
	for k := len(estimates) + 1; k <= cfg.MaxHyperSamples; k++ {
		if ctx.Err() != nil {
			break
		}
		hs := e.HyperSample(rng)
		res.Trace = append(res.Trace, hs)
		res.Units += hs.Units
		res.SimTime += hs.SimTime
		res.FitTime += hs.FitTime
		if hs.ObservedMax > res.ObservedMax {
			res.ObservedMax = hs.ObservedMax
		}
		estimates = append(estimates, hs.Estimate)
		if k >= 2 {
			e.updateInterval(&res, estimates)
		}
		if cfg.Observer != nil {
			if k < 2 {
				cfg.Observer.HyperSampleDone(Progress{
					HyperSamples: 1,
					Estimate:     estimates[0],
					CILow:        math.Inf(-1),
					CIHigh:       math.Inf(1),
					RelErr:       math.Inf(1),
					Units:        res.Units,
				})
			} else {
				cfg.Observer.HyperSampleDone(Progress{
					HyperSamples: k,
					Estimate:     res.Estimate,
					CILow:        res.CILow,
					CIHigh:       res.CIHigh,
					RelErr:       res.RelErr,
					Units:        res.Units,
					Converged:    res.Converged,
				})
			}
		}
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(Checkpoint{
				Estimates:   append([]float64(nil), estimates...),
				Units:       res.Units,
				ObservedMax: res.ObservedMax,
				RNG:         rng.State(),
				SimNS:       int64(res.SimTime),
				FitNS:       int64(res.FitTime),
			})
		}
		if res.Converged {
			return res
		}
	}
	// MaxHyperSamples == 1 (or a resume that already exhausted the cap
	// with a single estimate): no deviation exists; report the single
	// hyper-sample with an unbounded interval rather than zeros.
	if res.HyperSamples == 0 && len(estimates) > 0 {
		res.Estimate = estimates[0]
		res.CILow = math.Inf(-1)
		res.CIHigh = math.Inf(1)
		res.RelErr = math.Inf(1)
		res.HyperSamples = len(estimates)
	}
	return res
}

// HyperRecord is the transportable outcome of one hyper-sample: exactly
// the per-iteration state the sequential procedure folds into its
// running Result. A shard executed on a remote worker returns its
// hyper-samples as HyperRecords; FoldRecords replays the stopping rule
// over them with the same arithmetic as RunContext, which is what makes
// a sharded (fleet) run bit-identical to a single-node run consuming
// the same substreams in the same order. All fields are finite after a
// completed hyper-sample, so the struct JSON-round-trips exactly (Go
// encodes float64 shortest-form, which decodes to the same bits).
type HyperRecord struct {
	// Estimate is the hyper-sample's maximum-power estimate.
	Estimate float64 `json:"estimate"`
	// Units is the units drawn for this hyper-sample, retries included.
	Units int `json:"units"`
	// ObservedMax is the largest unit power seen while drawing it.
	ObservedMax float64 `json:"observed_max"`
}

// Record extracts the transportable part of a hyper-sample result.
func (h HyperSampleResult) Record() HyperRecord {
	return HyperRecord{Estimate: h.Estimate, Units: h.Units, ObservedMax: h.ObservedMax}
}

// FoldRecords replays the sequential stopping rule of Figure 4 over
// per-hyper-sample records: fold record k, check the Student-t interval
// at k ≥ 2, stop at the first k that converges. It is the merge half of
// the distributed determinism contract — for records produced by the
// same substreams in the same global order, FoldRecords returns a
// Result whose statistical fields (Estimate, CI, RelErr, HyperSamples,
// Units, Converged, SigmaSq*, ObservedMax) are bit-identical to
// RunContext's, because both run the identical foldInterval arithmetic
// over the identical estimate prefixes. Records beyond the stopping
// point (shards that ran past fleet-wide convergence) or beyond
// MaxHyperSamples are ignored, exactly as a sequential run would never
// have drawn them. Trace and wall-clock timings are not reconstructed.
func FoldRecords(cfg Config, recs []HyperRecord) Result {
	cfg = cfg.Defaults()
	if len(recs) > cfg.MaxHyperSamples {
		recs = recs[:cfg.MaxHyperSamples]
	}
	var res Result
	res.ObservedMax = math.Inf(-1)
	estimates := make([]float64, 0, len(recs))
	for k := 1; k <= len(recs); k++ {
		rec := recs[k-1]
		res.Units += rec.Units
		if rec.ObservedMax > res.ObservedMax {
			res.ObservedMax = rec.ObservedMax
		}
		estimates = append(estimates, rec.Estimate)
		if k >= 2 {
			foldInterval(cfg, &res, estimates)
		}
		if res.Converged {
			return res
		}
	}
	if res.HyperSamples == 0 && len(estimates) > 0 {
		res.Estimate = estimates[0]
		res.CILow = math.Inf(-1)
		res.CIHigh = math.Inf(1)
		res.RelErr = math.Inf(1)
		res.HyperSamples = len(estimates)
	}
	return res
}

// updateInterval folds the current estimate list into res via the shared
// foldInterval arithmetic.
func (e *Estimator) updateInterval(res *Result, estimates []float64) {
	foldInterval(e.cfg, res, estimates)
}

// foldInterval folds the current estimate list into res: the running
// mean, the Student-t interval (Eqn. 3.8), the σ² estimate with its χ²
// interval, and the stopping decision. Pure arithmetic — no randomness.
// It is shared verbatim by the sequential loop (RunContext) and the
// distributed merge (FoldRecords); keeping one implementation is what
// lets the fleet promise bit-identical merged results.
func foldInterval(cfg Config, res *Result, estimates []float64) {
	k := len(estimates)
	mean, sd := stats.MeanStd(estimates)
	tq := stats.TwoSidedT(cfg.Confidence, float64(k-1))
	half := tq * sd / math.Sqrt(float64(k))
	res.Estimate = mean
	res.SigmaSq = sd * sd
	res.SigmaSqLow, res.SigmaSqHi = stats.VarianceCI(res.SigmaSq, k, cfg.Confidence)
	res.CILow = mean - half
	res.CIHigh = mean + half
	if mean != 0 {
		res.RelErr = half / math.Abs(mean)
	} else {
		res.RelErr = math.Inf(1)
	}
	res.HyperSamples = k
	res.Converged = res.RelErr <= cfg.Epsilon
}

// RelativeError returns (estimate − actual)/actual, the quantity reported
// in the paper's error columns.
func RelativeError(estimate, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return (estimate - actual) / actual
}
