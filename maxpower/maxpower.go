// Package maxpower is the public entry point of the library: statistical
// maximum-power estimation for combinational circuits using the limiting
// distribution of extreme order statistics (Qiu, Wu & Pedram, DAC 1998).
//
// Typical use:
//
//	c, _ := maxpower.Circuit("C3540")
//	pop, _ := maxpower.BuildPopulation(c, maxpower.PopulationSpec{
//		Kind: maxpower.PopHighActivity, Size: 20000, Seed: 1,
//	})
//	res, _ := maxpower.Estimate(pop, maxpower.EstimateOptions{Seed: 2})
//	fmt.Printf("max power ≈ %.3f mW ±%.1f%%\n", res.Estimate, 100*res.RelErr)
//
// The heavy lifting lives in the internal packages (netlist, sim, power,
// vectorgen, weibull, evt); this package wires them together behind a
// small, stable API.
package maxpower

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// Result is the estimator outcome; see the fields of evt.Result.
type Result = evt.Result

// Checkpoint is the resumable state of an estimation run, captured after
// every completed hyper-sample; see evt.Checkpoint for the determinism
// contract. It is JSON-serializable, so a service can journal it and
// resume an interrupted job bit-identically after a crash.
type Checkpoint = evt.Checkpoint

// Population is a finite vector-pair population with simulated powers.
type Population = vectorgen.Population

// CircuitNames returns the names of the built-in benchmark circuits (the
// synthetic ISCAS-85 equivalents from the paper's evaluation).
func CircuitNames() []string { return bench.Names() }

// Circuit returns the named built-in benchmark circuit.
func Circuit(name string) (*netlist.Circuit, error) { return bench.Generate(name) }

// LoadBench parses a circuit in ISCAS-85 .bench format.
func LoadBench(name string, r io.Reader) (*netlist.Circuit, error) {
	return netlist.ParseBench(name, r)
}

// LoadBenchFile parses a .bench file from disk.
func LoadBenchFile(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("maxpower: %w", err)
	}
	defer f.Close()
	return netlist.ParseBench(path, f)
}

// Population kinds for PopulationSpec.Kind.
const (
	// PopUniform draws both vectors uniformly (transition prob 1/2 per
	// input) — Category I.1 via pure random vector generation.
	PopUniform = "uniform"
	// PopHighActivity draws per-pair activity uniformly from
	// [MinActivity, 1] — the paper's unconstrained populations.
	PopHighActivity = "high-activity"
	// PopConstrained flips every input with probability Activity —
	// Category I.2 with a uniform transition-probability specification.
	PopConstrained = "constrained"
)

// PopulationSpec describes how to build a finite population.
type PopulationSpec struct {
	// Kind is one of PopUniform, PopHighActivity, PopConstrained.
	Kind string
	// Size is |V|; the paper uses 160,000 (unconstrained) / 80,000
	// (constrained). Defaults to 20,000.
	Size int
	// Activity: for PopConstrained, the per-input transition probability;
	// for PopHighActivity, the lower activity bound (default 0.3).
	Activity float64
	// Skew is the PopHighActivity mixture exponent (0 = library default).
	Skew float64
	// Probs optionally gives per-input transition probabilities for
	// PopConstrained, overriding Activity.
	Probs []float64
	// DelayModel is zero|unit|fanout|table (default fanout).
	DelayModel string
	// Power overrides the electrical constants (zero value = defaults).
	Power power.Params
	// Seed makes the population reproducible.
	Seed uint64
	// Workers bounds parallel simulation (0 = NumCPU).
	Workers int
	// KeepPairs retains the raw vectors (needed to inspect or replay the
	// worst-case pair; costs memory).
	KeepPairs bool
}

// Validate rejects population specifications that no generator can
// honor, with descriptive errors. Zero-valued fields are legal (they
// take library defaults); out-of-range and NaN ones are not, and
// neither are electrical constants power.NewEvaluator would refuse.
// The per-input Probs width check needs the circuit and happens in
// BuildPopulation.
func (spec PopulationSpec) Validate() error {
	if spec.Size < 0 {
		return fmt.Errorf("maxpower: population Size must be non-negative (0 = default 20000), got %d", spec.Size)
	}
	switch spec.Kind {
	case PopUniform, PopHighActivity, PopConstrained, "":
	default:
		return fmt.Errorf("maxpower: unknown population kind %q (want %q, %q or %q)",
			spec.Kind, PopUniform, PopHighActivity, PopConstrained)
	}
	// The range checks are written so that NaN, which fails every
	// comparison, fails them too.
	if spec.Kind == PopHighActivity || spec.Kind == "" {
		if !(spec.Activity >= 0 && spec.Activity <= 1) {
			return fmt.Errorf("maxpower: high-activity floor Activity must be in [0,1] (0 = default 0.3), got %v", spec.Activity)
		}
		if math.IsNaN(spec.Skew) {
			return fmt.Errorf("maxpower: high-activity Skew must be a number (0 = default %d), got %v", vectorgen.DefaultActivitySkew, spec.Skew)
		}
	}
	if spec.Kind == PopConstrained && spec.Probs == nil {
		if !(spec.Activity > 0 && spec.Activity <= 1) {
			return fmt.Errorf("maxpower: constrained population needs Activity in (0,1], got %v", spec.Activity)
		}
	}
	for i, p := range spec.Probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("maxpower: Probs[%d] = %v outside [0,1]", i, p)
		}
	}
	if err := spec.Power.Validate(); err != nil {
		return fmt.Errorf("maxpower: invalid Power: %w", err)
	}
	return nil
}

// KernelCache deduplicates compiled simulation kernels (sim.Program) by
// circuit + delay model, so repeated runs — and concurrent runs sharing
// one cache — pay the netlist compile once. See sim.ProgramCache.
type KernelCache = sim.ProgramCache

// NewKernelCache builds a kernel cache bounded to capacity compiled
// programs (LRU beyond that).
func NewKernelCache(capacity int) *KernelCache { return sim.NewProgramCache(capacity) }

// kernelEvaluator builds the circuit's power evaluator with the compiled
// kernel engine enabled, deduplicating the compile through kc when
// non-nil (nil compiles privately). The cache key is circuit name +
// delay model — delay assignments are deterministic per model, so the
// pair pins the program; the fingerprint check inside the cache turns
// any key collision into a recompile, never a wrong simulation.
//
// Timed stripes run the speculative settle-then-patch executor: it is
// bit-identical to the event wheel on every delay model (misprediction
// falls back per stripe, checked exactly) and substantially faster, so
// it is the library default. Zero-delay programs settle either way.
func kernelEvaluator(c *netlist.Circuit, model delay.Model, p power.Params, kc *KernelCache) *power.Evaluator {
	ev := power.NewEvaluator(c, model, p)
	ev.UseSpeculative(kc, kernelKey(c, model))
	return ev
}

// kernelKey is the kernel-cache key of a circuit under a delay model.
func kernelKey(c *netlist.Circuit, model delay.Model) string { return c.Name + "/" + model.Name() }

// BuildPopulation simulates a finite population of vector pairs on the
// circuit and returns it ready for estimation.
func BuildPopulation(c *netlist.Circuit, spec PopulationSpec) (*Population, error) {
	return BuildPopulationKernels(c, spec, nil)
}

// BuildPopulationKernels is BuildPopulation with the compiled-kernel
// cache shared: the service passes its process-wide cache here so
// population builds reuse (and warm) the same programs as streaming
// jobs and fleet shards.
func BuildPopulationKernels(c *netlist.Circuit, spec PopulationSpec, kernels *KernelCache) (*Population, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Size == 0 {
		spec.Size = 20000
	}
	if spec.DelayModel == "" {
		spec.DelayModel = "fanout"
	}
	model, err := delay.ByName(spec.DelayModel)
	if err != nil {
		return nil, err
	}
	gen, err := generatorFor(c.NumInputs(), spec)
	if err != nil {
		return nil, err
	}
	eval := kernelEvaluator(c, model, spec.Power, kernels)
	return vectorgen.Build(eval, gen, vectorgen.Options{
		Size:      spec.Size,
		Seed:      spec.Seed,
		Workers:   spec.Workers,
		KeepPairs: spec.KeepPairs,
	})
}

// generatorFor maps a spec onto its vectorgen generator. The spec's
// field ranges were already vetted by PopulationSpec.Validate (the single
// source of truth — both BuildPopulation and the streaming flow call it
// first); only the per-input Probs width check lives here, because it
// needs the circuit.
func generatorFor(inputs int, spec PopulationSpec) (vectorgen.Generator, error) {
	switch spec.Kind {
	case PopUniform:
		return vectorgen.Uniform{N: inputs}, nil
	case PopHighActivity, "":
		min := spec.Activity
		if min == 0 {
			min = 0.3
		}
		return vectorgen.HighActivity{N: inputs, MinActivity: min, Skew: spec.Skew}, nil
	case PopConstrained:
		if spec.Probs != nil {
			if len(spec.Probs) != inputs {
				return nil, fmt.Errorf("maxpower: %d probabilities for %d inputs", len(spec.Probs), inputs)
			}
			return vectorgen.Constrained{Probs: spec.Probs}, nil
		}
		return vectorgen.ConstantActivity(inputs, spec.Activity), nil
	}
	return nil, fmt.Errorf("maxpower: unknown population kind %q", spec.Kind)
}

// EstimateOptions configures an estimation run. Zero fields take the
// paper's defaults: n = 30, m = 10, ε = 5%, confidence = 90%.
type EstimateOptions struct {
	// SampleSize is n.
	SampleSize int
	// SamplesPerHyper is m.
	SamplesPerHyper int
	// Epsilon is the target relative error.
	Epsilon float64
	// Confidence is the CI level.
	Confidence float64
	// Seed drives the sampling.
	Seed uint64
	// MaxHyperSamples caps iteration (default 200).
	MaxHyperSamples int
	// DisableFiniteCorrection turns off the §3.4 correction (ablation).
	DisableFiniteCorrection bool
	// Workers bounds the parallel simulation of each hyper-sample's units
	// in streaming estimation (0 = NumCPU). Vector-pair generation stays
	// sequential — only the RNG-free simulation fans out — so the result
	// is bit-identical for every worker count. Ignored by Estimate, whose
	// population is already simulated.
	Workers int
	// Progress, when non-nil, receives a snapshot after every completed
	// hyper-sample. The callback runs synchronously on the estimating
	// goroutine and never changes the result (it consumes no randomness).
	Progress func(ProgressSnapshot)
	// Checkpoint, when non-nil, resumes an interrupted run from that
	// state instead of starting fresh: the Seed is ignored (the RNG is
	// restored from the checkpoint) and the run continues at the next
	// hyper-sample. All other options and the population/spec must match
	// the interrupted run's for the bit-identity guarantee to hold.
	Checkpoint *Checkpoint
	// OnCheckpoint, when non-nil, receives the run's resumable state
	// after every completed hyper-sample. Synchronous, consumes no
	// randomness, never changes the result.
	OnCheckpoint func(Checkpoint)
	// OnBatchFallback, when non-nil, is called once after a streaming run
	// whose batch engine fell back to the scalar oracle: count is how many
	// batches recovered serially, err the first engine error. Results are
	// unaffected (the scalar path is bit-identical); this is the
	// observability hook services use to count silent degradation.
	// Ignored by Estimate, which never batches.
	OnBatchFallback func(count int64, err error)
	// Kernels, when non-nil, deduplicates compiled simulation kernels
	// across runs: streaming estimation (and streaming shard workers)
	// compile each (circuit, delay model) into a flat striped program
	// either way, but a shared cache makes repeat runs skip the compile.
	// The cache also keeps finished runs' streaming sources — evaluators,
	// executors and batch buffers — idle in the program's entry, so the
	// next run on the same circuit, delay model and Power parameters
	// takes one instead of building it. Concurrent runs never share a
	// source, and idle sources are freed with their entry or the cache.
	// Results are unaffected — the compiled engine is bit-identical to
	// the scalar oracle, and a reused source to a fresh one. Ignored by
	// Estimate, whose population is already simulated.
	Kernels *KernelCache
}

// ProgressSnapshot is the running state of an estimation after a
// hyper-sample; see evt.Progress.
type ProgressSnapshot = evt.Progress

// Validate rejects option sets whose fields fall outside their legal
// ranges with descriptive errors. Zero values are legal (paper
// defaults: n = 30, m = 10, ε = 5%, l = 90%).
func (opt EstimateOptions) Validate() error {
	if opt.SampleSize < 0 {
		return fmt.Errorf("maxpower: SampleSize must be non-negative (0 = default 30), got %d", opt.SampleSize)
	}
	if opt.SamplesPerHyper < 0 || (opt.SamplesPerHyper > 0 && opt.SamplesPerHyper < 3) {
		return fmt.Errorf("maxpower: SamplesPerHyper must be ≥ 3 for a 3-parameter fit (0 = default 10), got %d", opt.SamplesPerHyper)
	}
	// NaN fails every comparison, so these checks are written to need
	// them to pass.
	if !(opt.Epsilon >= 0 && opt.Epsilon < 1) {
		return fmt.Errorf("maxpower: Epsilon must be in (0,1) (0 = default 0.05), got %v", opt.Epsilon)
	}
	if !(opt.Confidence >= 0 && opt.Confidence < 1) {
		return fmt.Errorf("maxpower: Confidence must be in (0,1) (0 = default 0.90), got %v", opt.Confidence)
	}
	if opt.MaxHyperSamples < 0 {
		return fmt.Errorf("maxpower: MaxHyperSamples must be non-negative (0 = default 200), got %d", opt.MaxHyperSamples)
	}
	if opt.Workers < 0 {
		return fmt.Errorf("maxpower: Workers must be non-negative (0 = NumCPU), got %d", opt.Workers)
	}
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// evtParams maps the statistical knobs onto an evt.Config, without the
// run hooks (Observer, Resume, OnCheckpoint). Sharded runs use this
// form: the same parameters drive every shard estimator and the fold,
// while the hooks stay with whoever owns the whole run.
func (opt EstimateOptions) evtParams() evt.Config {
	return evt.Config{
		SampleSize:              opt.SampleSize,
		SamplesPerHyper:         opt.SamplesPerHyper,
		Epsilon:                 opt.Epsilon,
		Confidence:              opt.Confidence,
		MaxHyperSamples:         opt.MaxHyperSamples,
		DisableFiniteCorrection: opt.DisableFiniteCorrection,
	}
}

func (opt EstimateOptions) evtConfig() evt.Config {
	cfg := opt.evtParams()
	if opt.Progress != nil {
		cfg.Observer = evt.ObserverFunc(opt.Progress)
	}
	cfg.Resume = opt.Checkpoint
	cfg.OnCheckpoint = opt.OnCheckpoint
	return cfg
}

// Estimate runs the EVT maximum-power estimator against a population.
func Estimate(pop *Population, opt EstimateOptions) (Result, error) {
	return EstimateContext(context.Background(), pop, opt)
}

// EstimateContext is Estimate with cancellation: when ctx is cancelled
// the run stops at the next hyper-sample boundary and returns the best
// result so far (Result.Converged reports whether ε was reached).
func EstimateContext(ctx context.Context, pop *Population, opt EstimateOptions) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	est, err := evt.New(pop, opt.evtConfig())
	if err != nil {
		return Result{}, err
	}
	return est.RunContext(ctx, stats.NewRNG(opt.Seed)), nil
}

// EstimateStreaming runs the estimator against on-demand simulation: no
// population is precomputed, every sampled vector pair costs one
// simulation, and Result.Units is the true simulation count. This is the
// flow for real designs where no ground truth exists. When spec.Size > 0
// the §3.4 finite-population correction targets that nominal |V|;
// spec.Size = 0 estimates the infinite-population maximum (raw μ̂).
func EstimateStreaming(c *netlist.Circuit, spec PopulationSpec, opt EstimateOptions) (Result, error) {
	return EstimateStreamingContext(context.Background(), c, spec, opt)
}

// EstimateStreamingContext is EstimateStreaming with cancellation at
// hyper-sample boundaries — the natural shape for long on-demand runs
// against large designs, where each unit is a full event-driven
// simulation.
func EstimateStreamingContext(ctx context.Context, c *netlist.Circuit, spec PopulationSpec, opt EstimateOptions) (Result, error) {
	var res Result
	err := withStreamSource(c, spec, opt, func(src *vectorgen.StreamSource) error {
		est, err := evt.New(src, opt.evtConfig())
		if err != nil {
			return err
		}
		res = est.RunContext(ctx, stats.NewRNG(opt.Seed))
		return nil
	})
	return res, err
}

// sourceTag identifies a prepared streaming source inside the kernel
// cache entry of its circuit name and delay model. The circuit is keyed
// by identity, so a lookup never walks the netlist (and two circuits
// cached under one name never trade sources); the electrical parameters
// are baked into the source's evaluators. The generator, DeclaredSize
// and Workers are rebound per run.
type sourceTag struct {
	c     *netlist.Circuit
	power power.Params
}

// withStreamSource is the shared preamble of the streaming entry points.
// It validates the inputs, takes an idle prepared source from
// opt.Kernels (or builds one when there is none, or no cache), binds it
// to this run's generator, DeclaredSize and Workers, runs fn on it,
// reports batch fallbacks, and parks the source in the cache again. A
// run that panics is not parked. Results are bit-identical whether the
// source was taken or built: its engines hold no state a result depends
// on between batches.
func withStreamSource(c *netlist.Circuit, spec PopulationSpec, opt EstimateOptions, fn func(*vectorgen.StreamSource) error) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	if spec.DelayModel == "" {
		spec.DelayModel = "fanout"
	}
	model, err := delay.ByName(spec.DelayModel)
	if err != nil {
		return err
	}
	gen, err := generatorFor(c.NumInputs(), spec)
	if err != nil {
		return err
	}
	key := kernelKey(c, model)
	tag := sourceTag{c: c, power: spec.Power}
	var src *vectorgen.StreamSource
	if opt.Kernels != nil {
		src, _ = opt.Kernels.Take(key, tag).(*vectorgen.StreamSource)
	}
	if src == nil {
		src, err = vectorgen.NewStreamSource(kernelEvaluator(c, model, spec.Power, opt.Kernels), gen)
	} else {
		err = src.Rebind(gen)
	}
	if err != nil {
		return err
	}
	src.DeclaredSize = spec.Size
	src.Workers = opt.Workers
	err = fn(src)
	reportBatchFallbacks(src, opt)
	if opt.Kernels != nil {
		opt.Kernels.Park(key, tag, src)
	}
	return err
}

// reportBatchFallbacks surfaces a streaming source's silent
// batch-to-scalar degradation through the options hook.
func reportBatchFallbacks(src *vectorgen.StreamSource, opt EstimateOptions) {
	if opt.OnBatchFallback == nil {
		return
	}
	if n := src.BatchFallbacks(); n > 0 {
		opt.OnBatchFallback(n, src.BatchErr())
	}
}

// EstimateCircuit is the one-shot convenience: build the named circuit's
// population and estimate its maximum power.
func EstimateCircuit(circuit string, spec PopulationSpec, opt EstimateOptions) (Result, *Population, error) {
	c, err := Circuit(circuit)
	if err != nil {
		return Result{}, nil, err
	}
	pop, err := BuildPopulation(c, spec)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := Estimate(pop, opt)
	if err != nil {
		return Result{}, nil, err
	}
	return res, pop, nil
}
