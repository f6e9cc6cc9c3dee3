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
// Estimate and EstimateStreaming are shorthands for Run, which takes a
// context and a Source: a built population (FromPopulation) or a
// circuit simulated on demand (Stream). RunShard and EstimateDistributed
// run a sharded estimate over the same Source, and RunFleet runs it on a
// fleet of maxpowerd workers.
//
// The heavy lifting lives in the internal packages (netlist, sim, power,
// vectorgen, weibull, evt); this package wires them together behind a
// small, stable API.
package maxpower

import (
	"context"
	"errors"
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

// maxPopulationSize bounds PopulationSpec.Size. A build holds Size
// float64 powers, and an allocation past the machine's memory kills the
// process instead of failing the call, so a service must turn such
// sizes away before it runs them. 4,194,304 powers are 32 MiB, 26 times
// the paper's 160,000. The bound applies to a stream's nominal |V| too,
// which allocates nothing: one rule for both modes.
const maxPopulationSize = 1 << 22

// maxPlaneBits bounds pairs·inputs of one batch of packed vector pairs:
// its two bit planes take pairs·inputs/4 bytes, 256 MiB at the bound.
// No built-in circuit reaches it; the widest, C2670 with 233 inputs,
// stays under it at maxPopulationSize pairs.
const maxPlaneBits = 1 << 30

// checkPlanes rejects a batch of pairs whose packed planes on c would
// exceed maxPlaneBits, before anything is allocated. Like the Probs
// width check, it needs the circuit.
func checkPlanes(c *netlist.Circuit, pairs int) error {
	if in := c.NumInputs(); in > 0 && pairs > maxPlaneBits/in {
		return fmt.Errorf("maxpower: %d vector pairs of %d inputs exceed %d pair-input bits of packed planes",
			pairs, in, maxPlaneBits)
	}
	return nil
}

// Validate rejects population specifications that no generator can
// honor, with descriptive errors. Zero-valued fields are legal (they
// take library defaults); out-of-range and NaN ones are not, and
// neither are electrical constants power.NewEvaluator would refuse, or
// a Size above 4,194,304. The checks that need the circuit — the
// per-input Probs width and the packed-plane bound — happen in
// BuildPopulation and in a Stream source's run.
func (spec PopulationSpec) Validate() error {
	if spec.Size < 0 || spec.Size > maxPopulationSize {
		return fmt.Errorf("maxpower: population Size must be in [0, %d] (0 = default 20000), got %d", maxPopulationSize, spec.Size)
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
// Every stripe runs the speculative settle-then-patch executor, the one
// packed executor: it is bit-identical to the scalar simulator on every
// delay model (a misprediction replays its stripe on the scalar
// simulator, checked exactly). Zero-delay programs only settle.
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
	if err := checkPlanes(c, spec.Size); err != nil {
		return nil, err
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
	// is bit-identical for every worker count. Ignored for a population
	// source, whose population is already simulated.
	Workers int
	// Progress, when non-nil, receives the running Result after every
	// completed hyper-sample; see evt.Config.OnProgress. The callback runs
	// synchronously on the estimating goroutine, consumes no randomness
	// and must not modify Trace, so it never changes the result.
	Progress func(Result)
	// Checkpoint, when non-nil, resumes an interrupted run from that
	// state instead of starting fresh: the Seed is ignored (the RNG is
	// restored from the checkpoint) and the run continues at the next
	// hyper-sample. All other options and the population/spec must match
	// the interrupted run's for the bit-identity guarantee to hold.
	Checkpoint *Checkpoint
	// OnCheckpoint, when non-nil, receives the run's resumable state
	// after every completed hyper-sample. Synchronous, consumes no
	// randomness, never changes the result. The Checkpoint's Records
	// share the run's record list: the callback may keep or serialize
	// the Checkpoint, but must not change its records; see
	// evt.Config.OnCheckpoint.
	OnCheckpoint func(Checkpoint)
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
	// the scalar oracle, and a reused source to a fresh one. Ignored for a
	// population source, whose population is already simulated.
	Kernels *KernelCache
}

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
	// The bounds on m, m·n and k, and the checkpoint's check against
	// them, are the estimator's own.
	return opt.evtConfig().Validate()
}

// evtParams maps the statistical knobs onto an evt.Config, without the
// run hooks (OnProgress, Resume, OnCheckpoint). Sharded runs use this
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
	cfg.OnProgress = opt.Progress
	cfg.Resume = opt.Checkpoint
	cfg.OnCheckpoint = opt.OnCheckpoint
	return cfg
}

// Source is what an estimate samples: a built population
// (FromPopulation) or a circuit simulated on demand (Stream). The zero
// Source is not usable; Run and the shard runners reject it.
type Source struct {
	pop  *Population
	c    *netlist.Circuit
	spec PopulationSpec
}

// FromPopulation samples a built population: every draw reads a
// precomputed power, and the §3.4 correction targets its size.
func FromPopulation(pop *Population) Source { return Source{pop: pop} }

// Stream simulates the circuit on demand: no population is precomputed,
// every sampled vector pair costs one simulation, and Result.Units is the
// true simulation count. This is the flow for real designs where no
// ground truth exists. When spec.Size > 0 the §3.4 finite-population
// correction targets that nominal |V|; spec.Size = 0 estimates the
// infinite-population maximum (raw μ̂).
func Stream(c *netlist.Circuit, spec PopulationSpec) Source { return Source{c: c, spec: spec} }

// Run runs the EVT maximum-power estimator against src. When ctx is
// cancelled the run stops at the next hyper-sample boundary and returns
// the result so far with a nil error (Result.Converged reports whether ε
// was reached).
func Run(ctx context.Context, src Source, opt EstimateOptions) (Result, error) {
	var res Result
	err := src.run(opt, func(s evt.Source) error {
		est, err := evt.New(s, opt.evtConfig())
		if err != nil {
			return err
		}
		res = est.RunContext(ctx, stats.NewRNG(opt.Seed))
		return nil
	})
	return res, err
}

// Estimate runs the EVT maximum-power estimator against a population.
func Estimate(pop *Population, opt EstimateOptions) (Result, error) {
	return Run(context.Background(), FromPopulation(pop), opt)
}

// EstimateStreaming runs the estimator against on-demand simulation of
// the circuit; see Stream.
func EstimateStreaming(c *netlist.Circuit, spec PopulationSpec, opt EstimateOptions) (Result, error) {
	return Run(context.Background(), Stream(c, spec), opt)
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

// run is the preamble every run of src shares: it validates opt and
// runs fn on the estimator's source. A stream also validates its spec
// and bounds its batch planes, takes an idle prepared source from
// opt.Kernels (or builds one when there is none, or no cache), binds it
// to this run's generator, DeclaredSize and Workers, and parks the
// source in the cache again after fn. A run that panics is not parked.
// Results are bit-identical whether the source was taken or built: its
// engines hold no state a result depends on between batches.
func (src Source) run(opt EstimateOptions, fn func(evt.Source) error) error {
	if src.pop != nil {
		if err := opt.Validate(); err != nil {
			return err
		}
		return fn(src.pop)
	}
	if src.c == nil {
		return errors.New("maxpower: empty Source (build one with FromPopulation or Stream)")
	}
	c, spec := src.c, src.spec
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	params := opt.evtParams().Defaults()
	if err := checkPlanes(c, params.SampleSize*params.SamplesPerHyper); err != nil {
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
	var s *vectorgen.StreamSource
	if opt.Kernels != nil {
		s, _ = opt.Kernels.Take(key, tag).(*vectorgen.StreamSource)
	}
	if s == nil {
		s, err = vectorgen.NewStreamSource(kernelEvaluator(c, model, spec.Power, opt.Kernels), gen)
	} else {
		err = s.Rebind(gen)
	}
	if err != nil {
		return err
	}
	s.DeclaredSize = spec.Size
	s.Workers = opt.Workers
	err = fn(s)
	if opt.Kernels != nil {
		opt.Kernels.Park(key, tag, s)
	}
	return err
}
