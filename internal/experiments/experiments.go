// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1–4, Figures 1–2) plus the ablation studies
// listed in DESIGN.md §5. Each runner returns typed rows that render to
// markdown; cmd/experiments assembles them into EXPERIMENTS.md.
//
// Scale note: the paper's populations hold 160,000 units (80,000 for the
// constrained tables) and every experiment repeats estimation 100 times.
// Those sizes are reachable via Config, but the defaults are trimmed
// (20,000-unit populations, 40 runs) so the full suite finishes in minutes
// on one core; Y and the SRS budgets are recomputed for the actual
// population, so the comparisons stay internally consistent.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/vectorgen"
)

// Config controls the experiment scale.
type Config struct {
	// Circuits to evaluate; nil means all nine of the paper.
	Circuits []string
	// PopSize is |V| for the unconstrained populations (paper: 160,000).
	PopSize int
	// ConstrainedPopSize is |V| for Tables 3–4 (paper: 80,000).
	ConstrainedPopSize int
	// Runs is the number of repeated estimations per circuit (paper: 100).
	Runs int
	// Seed drives everything; a run is fully reproducible from it.
	Seed uint64
	// Workers bounds simulation parallelism (0 = NumCPU).
	Workers int
	// DelayModel is the simulator delay model (default "fanout").
	DelayModel string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// WithDefaults returns the config with unset fields filled in.
func (c Config) WithDefaults() Config {
	if len(c.Circuits) == 0 {
		c.Circuits = bench.Names()
	}
	if c.PopSize <= 0 {
		c.PopSize = 20000
	}
	if c.ConstrainedPopSize <= 0 {
		c.ConstrainedPopSize = c.PopSize
	}
	if c.Runs <= 0 {
		c.Runs = 40
	}
	if c.DelayModel == "" {
		c.DelayModel = "fanout"
	}
	return c
}

// epsilon and confidence are the estimator's ε and l in every
// experiment: the paper's 5% at 90%, which are evt.Config's defaults
// too.
const (
	epsilon    = 0.05
	confidence = 0.90
)

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// popKind identifies a population family for the cache.
type popKind struct {
	circuit  string
	kind     string // "high" | "c0.7" | "c0.3"
	size     int
	delayMod string
}

// Runner caches populations across tables so Table 1 and Table 2 (and the
// figures) share the exact same universe, as in the paper.
type Runner struct {
	cfg  Config
	pops map[popKind]*vectorgen.Population
}

// NewRunner builds a Runner for the config.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.WithDefaults(), pops: make(map[popKind]*vectorgen.Population)}
}

// population returns (building and caching on first use) the population of
// the given family for a circuit.
func (r *Runner) population(circuit, kind string, size int) (*vectorgen.Population, error) {
	key := popKind{circuit: circuit, kind: kind, size: size, delayMod: r.cfg.DelayModel}
	if p, ok := r.pops[key]; ok {
		return p, nil
	}
	c, err := bench.Generate(circuit)
	if err != nil {
		return nil, err
	}
	model, err := delay.ByName(r.cfg.DelayModel)
	if err != nil {
		return nil, err
	}
	eval := power.NewEvaluator(c, model, power.Params{})
	var gen vectorgen.Generator
	switch kind {
	case "high":
		gen = vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	case "c0.7":
		gen = vectorgen.ConstantActivity(c.NumInputs(), 0.7)
	case "c0.3":
		gen = vectorgen.ConstantActivity(c.NumInputs(), 0.3)
	default:
		return nil, fmt.Errorf("experiments: unknown population kind %q", kind)
	}
	r.cfg.logf("building population %s/%s (%d units)…", circuit, kind, size)
	pop, err := vectorgen.Build(eval, gen, vectorgen.Options{
		Size:    size,
		Seed:    r.cfg.Seed ^ hashString(circuit+kind),
		Workers: r.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	r.pops[key] = pop
	return pop, nil
}

// hashString is FNV-1a, used to derive per-population seeds.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
